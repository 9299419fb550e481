package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"plinius/internal/core"
)

// TestShardedServingMatchesSequential: explicit Options.Shards serves
// through a pipelined shard group with predictions identical to the
// sequential enclave model, across refresh and key rotation.
func TestShardedServingMatchesSequential(t *testing.T) {
	f, test := newTrainedFramework(t, 8)
	want := make([]int, test.N)
	for i := 0; i < test.N; i++ {
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify %d: %v", i, err)
		}
		want[i] = cls
	}

	s, err := New(context.Background(), f, Options{
		Shards:          3,
		MaxBatch:        8,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if s.Shards() < 2 {
		t.Fatalf("Shards = %d, want a real split", s.Shards())
	}
	if s.Workers() < 1 {
		t.Fatalf("Workers = %d", s.Workers())
	}

	got := make([]int, test.N)
	var wg sync.WaitGroup
	errCh := make(chan error, test.N)
	for i := 0; i < test.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := s.Classify(context.Background(), test.Image(i))
			if err != nil {
				errCh <- err
				return
			}
			got[i] = pred.Class
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("Classify: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharded class[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Refresh and rotation go through the group, no request dropped.
	if err := f.Train(context.Background(), core.StopAt(4)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	v1 := s.Version()
	iter, err := s.Refresh(context.Background())
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if iter != f.Iteration() || s.Version() <= v1 {
		t.Fatalf("Refresh iter %d version %d, want iter %d version > %d", iter, s.Version(), f.Iteration(), v1)
	}
	if _, err := s.RotateKey(context.Background()); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	pred, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify after rotate: %v", err)
	}
	cls, err := f.Classify(test.Image(0))
	if err != nil {
		t.Fatalf("sequential classify after rotate: %v", err)
	}
	if pred.Class != cls {
		t.Fatalf("after rotate class %d, want %d", pred.Class, cls)
	}
}

// TestShardAutoKeepsReplicasWhenFits: with a replica footprint inside
// the host headroom, ShardAuto behaves exactly like the whole-model
// replica pool.
func TestShardAutoKeepsReplicasWhenFits(t *testing.T) {
	f, test := newTrainedFrameworkOverhead(t, 4, 10<<20)
	s, err := New(context.Background(), f, Options{
		Workers:         2,
		Shards:          ShardAuto,
		MaxBatch:        8,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if s.Shards() != 0 || s.ShardsStreaming() {
		t.Fatalf("ShardAuto sharded (%d shards) although a replica fits", s.Shards())
	}
	if s.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", s.Workers())
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify: %v", err)
	}
}

// TestShardAutoShardsWhenReplicaOverHeadroom: a replica footprint past
// the headroom flips ShardAuto into the shard pipeline, which keeps
// the host under the paging knee where the monolithic pool would have
// crossed it.
func TestShardAutoShardsWhenReplicaOverHeadroom(t *testing.T) {
	// Training enclave ~50 MB: headroom ~43 MB < the ~50 MB replica
	// footprint, so ShardAuto must shard. The shard enclaves reserve
	// only the forward-pass working set, so the host stays under EPC.
	f, test := newTrainedFrameworkOverhead(t, 4, 50<<20)
	if f.ReplicaFootprint(8) <= f.Host.Headroom() {
		t.Fatalf("replica footprint %d fits headroom %d; test needs the over-headroom regime",
			f.ReplicaFootprint(8), f.Host.Headroom())
	}
	trainResident := f.Host.Resident()
	s, err := New(context.Background(), f, Options{
		Shards:          ShardAuto,
		MaxBatch:        8,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	// The model fits one range here, which serves whole like a replica
	// but reserves only the shard overhead beside it.
	if got := f.Host.Resident() - trainResident; got >= f.ReplicaFootprint(8) {
		t.Fatalf("ShardAuto reserved %d bytes, not under one replica's %d: it did not shard past the headroom", got, f.ReplicaFootprint(8))
	}
	for i := 0; i < 16; i++ {
		pred, err := s.Classify(context.Background(), test.Image(i))
		if err != nil {
			t.Fatalf("Classify %d: %v", i, err)
		}
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify %d: %v", i, err)
		}
		if pred.Class != cls {
			t.Fatalf("class[%d] = %d, want %d", i, pred.Class, cls)
		}
	}
	if f.Host.OverEPC() {
		t.Fatalf("sharded serving overcommitted the host: resident %d MB", f.Host.Resident()>>20)
	}
	if st := s.Stats(); st.EPCPressure != 0 {
		t.Fatalf("EPCPressure = %v, want 0 with sharded serving inside the budget", st.EPCPressure)
	}
}
