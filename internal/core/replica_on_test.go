package core

import (
	"context"
	"testing"

	"plinius/internal/enclave"
	"plinius/internal/mnist"
)

// TestNewReplicaOnChargesTargetHost: the train-here-serve-there shape.
// A replica built with NewReplicaOn must charge its footprint to the
// host it serves on — not the framework's training host — and return
// exactly that footprint to the same host on Close.
func TestNewReplicaOnChargesTargetHost(t *testing.T) {
	cases := []struct {
		name string
		// serveElsewhere builds the replica on a dedicated serving host
		// when true; on the framework's own host when false.
		serveElsewhere bool
	}{
		{"on the framework host", false},
		{"on a dedicated serving host", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFramework(t, smallConfig())
			if err := f.LoadDataset(mnist.Synthetic(64, 3)); err != nil {
				t.Fatalf("LoadDataset: %v", err)
			}
			if err := f.Train(context.Background(), StopAt(2)); err != nil {
				t.Fatalf("Train: %v", err)
			}

			target := f.Host
			if tc.serveElsewhere {
				target = enclave.NewHost(f.Host.Profile())
			}
			trainBefore := f.Host.Resident()
			targetBefore := target.Resident()

			rep, err := f.NewReplicaOn(target, 9)
			if err != nil {
				t.Fatalf("NewReplicaOn: %v", err)
			}
			fp := f.ReplicaFootprint(0)
			if fp <= 0 {
				t.Fatalf("ReplicaFootprint = %d", fp)
			}
			if got := target.Resident() - targetBefore; got != fp {
				t.Fatalf("target host charged %d bytes, want the replica footprint %d", got, fp)
			}
			if tc.serveElsewhere && f.Host.Resident() != trainBefore {
				t.Fatalf("training host resident moved %d -> %d; a serve-elsewhere replica must not touch it",
					trainBefore, f.Host.Resident())
			}
			if len(rep.shards) != 1 || rep.shards[0].encl.Host() != target {
				t.Fatal("replica enclave not placed on the target host")
			}

			// The replica serves from the target host like any other.
			ds := mnist.Synthetic(1, 5)
			want, err := f.Classify(ds.Image(0))
			if err != nil {
				t.Fatalf("framework Classify: %v", err)
			}
			got, err := rep.ClassifyBatch(ds.Image(0))
			if err != nil {
				t.Fatalf("replica ClassifyBatch: %v", err)
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("replica classes %v, want [%d]", got, want)
			}

			if err := rep.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if target.Resident() != targetBefore {
				t.Fatalf("Close returned the footprint to the wrong place: target resident %d, want %d",
					target.Resident(), targetBefore)
			}
			if f.Host.Resident() != trainBefore {
				t.Fatalf("training host resident %d after Close, want %d", f.Host.Resident(), trainBefore)
			}
		})
	}
}
