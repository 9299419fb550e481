package core

import (
	"context"
	"sync"
	"testing"

	"plinius/internal/mnist"
)

// TestParallelMirrorOutConcurrentWithClassify drives the fan-out
// MirrorOut path (model past the mirror-parallel threshold) while
// replicas classify from pinned snapshots and the training loop keeps
// iterating — the PR-5 concurrency surface: parallel sealing inside
// the Romulus transaction, parallel restore workers, and forward
// passes over reused layer scratch, all at once. Run with -race.
func TestParallelMirrorOutConcurrentWithClassify(t *testing.T) {
	cfgText, err := SyntheticModelConfig(1 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	f := newFramework(t, Config{
		ModelConfig:        cfgText,
		PMBytes:            24 << 20,
		Seed:               13,
		MirrorFreq:         1,
		TrainOverheadBytes: 1 << 20,
	})
	ds := mnist.Synthetic(64, 13)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(1)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	rep, err := f.NewReplica(3)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()
	// A second replica takes the refreshes, so rep classifies while
	// rep2 restores.
	rep2, err := f.NewReplica(4)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep2.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		in := rep.InputSize()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rep.ClassifyBatch(ds.Images[(i%ds.N)*in : (i%ds.N+1)*in]); err != nil {
				t.Errorf("ClassifyBatch: %v", err)
				return
			}
			i++
		}
	}()
	// Mirror out (parallel seal pipeline), publish and restore (parallel
	// open pipeline) interleaved with the classify traffic.
	for r := 0; r < 4; r++ {
		if _, err := f.MirrorSave(); err != nil {
			t.Fatalf("MirrorSave: %v", err)
		}
		if _, err := f.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if _, err := rep2.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
