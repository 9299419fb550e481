package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"plinius/internal/enclave"
)

// streamingGroup builds a shard group on a dedicated serving host
// whose budget forces streaming but leaves a window of at least one
// batch (two hot ranges plus overheads).
func streamingGroup(t *testing.T, f *Framework, budget int, seed int64) (*ShardGroup, *enclave.Host) {
	t.Helper()
	host := enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(budget))
	g, err := f.NewShardGroup(ShardOptions{
		Host:          host,
		Batch:         2,
		OverheadBytes: 8 << 10,
		Seed:          seed,
	})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	if !g.Report().Streaming {
		t.Fatalf("group not streaming on a %d-byte host (plan %v)", budget, g.Plan())
	}
	return g, host
}

// TestShardGroupStreamingRestoresOncePerStage: a streaming group reads
// each stage's range from PM exactly once per batch, as the forward
// pass reaches it — restores equal stages times batches, and the
// prefetch counters read 0 — while it answers exactly as the training
// enclave does, pays zero page faults and never holds more than the
// host's budget.
func TestShardGroupStreamingRestoresOncePerStage(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	want, err := f.ClassifyBatch(test.Images)
	if err != nil {
		t.Fatalf("framework ClassifyBatch: %v", err)
	}
	const budget = 192 << 10
	g, host := streamingGroup(t, f, budget, 5)
	got := groupClassifyAll(t, g, test, 2)
	rep := g.Report()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class[%d]: group %d, framework %d", i, got[i], want[i])
		}
	}
	batches := uint64((test.N + 1) / 2)
	if rep.ShardRestores != uint64(rep.Shards)*batches {
		t.Fatalf("%d restores over %d batches of a %d-stage group, want one per stage per batch", rep.ShardRestores, batches, rep.Shards)
	}
	if rep.ShardStalls != 0 || rep.ShardPrefetchWaits != 0 || rep.ShardPrefetched != 0 {
		t.Fatalf("prefetch counters read %d stalls, %d waits, %d prefetched; want 0", rep.ShardStalls, rep.ShardPrefetchWaits, rep.ShardPrefetched)
	}
	s := host.Stats()
	if s.PageSwaps != 0 {
		t.Fatalf("streaming group paid %d faults; want 0 under the knee", s.PageSwaps)
	}
	if s.PeakResidentBytes > budget {
		t.Fatalf("streaming group peaked at %d bytes over its %d-byte budget", s.PeakResidentBytes, budget)
	}
}

// TestShardGroupPrefetchQuiescesOnRefresh drives concurrent classify
// traffic through a streaming group while Refresh flips versions and,
// after a key rotation, keys: Refresh must quiesce the pipeline (no
// batch may read an opener being swapped), every batch must answer,
// and the group must stay coherent. Run with -race.
func TestShardGroupPrefetchQuiescesOnRefresh(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	g, _ := streamingGroup(t, f, 192<<10, 7)
	defer g.Close()

	in := g.InputSize()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				img := test.Images[(i%test.N)*in : (i%test.N+1)*in]
				if _, err := g.ClassifyBatch(img); err != nil {
					t.Errorf("ClassifyBatch: %v", err)
					return
				}
				i += 3
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		if err := f.Train(context.Background(), StopAt(1)); err != nil {
			t.Fatalf("Train: %v", err)
		}
		if _, err := f.Publish(); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if _, err := g.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
	}
	if _, err := f.RotateKey(); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := g.Refresh(); err != nil {
		t.Fatalf("Refresh after RotateKey: %v", err)
	}
	close(stop)
	wg.Wait()
	if g.Iteration() != f.Iteration() {
		t.Fatalf("group iter %d, framework %d", g.Iteration(), f.Iteration())
	}
}

// TestStreamingRefreshFollowsRotateKey: after Framework.RotateKey, a
// streaming group's Refresh provisions the new key into its shards
// before it pins the version sealed under it, so the next batch opens
// and answers as the training enclave does.
func TestStreamingRefreshFollowsRotateKey(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	g, _ := streamingGroup(t, f, 192<<10, 5)
	defer g.Close()
	ver, err := f.RotateKey()
	if err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := g.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if g.Version() != ver {
		t.Fatalf("Refresh serves version %d, want the rotated %d", g.Version(), ver)
	}
	img := test.Images[:2*g.InputSize()]
	want, err := f.ClassifyBatch(img)
	if err != nil {
		t.Fatalf("framework ClassifyBatch: %v", err)
	}
	got, err := g.ClassifyBatch(img)
	if err != nil {
		t.Fatalf("ClassifyBatch after Refresh: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class[%d]: group %d, framework %d", i, got[i], want[i])
		}
	}
}

// errCarry is the fault faultyHandoff injects.
var errCarry = errors.New("injected hand-off fault")

// faultyHandoff is an in-process Handoff whose Carry fails when the
// failBatch-th batch crosses the boundary failFrom -> failFrom+1.
type faultyHandoff struct {
	failFrom  int
	failBatch int64
	crossings atomic.Int64
}

func (h *faultyHandoff) Bind(from, to int, src, dst *enclave.Enclave) {}

func (h *faultyHandoff) Carry(from, to int, sealed []byte) error {
	if from == h.failFrom && h.crossings.Add(1) == h.failBatch {
		return errCarry
	}
	return nil
}

// TestShardGroupFailedHandoffParksEverything: a streaming batch whose
// sealed activations cannot cross a stage boundary fails there without
// leaking a reservation — when the batch returns, every host holds only
// its parked shards' overhead — and the next batch serves. The stages
// alternate between two hosts. Run with -race.
func TestShardGroupFailedHandoffParksEverything(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	probe, _ := streamingGroup(t, f, 192<<10, 5)
	plan := probe.Plan()
	if err := probe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	const overhead = 8 << 10
	in := f.Net.InputSize()
	for from := 0; from+1 < len(plan); from++ {
		hosts := []*enclave.Host{
			enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(128<<10)),
			enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(128<<10)),
		}
		placed := make([]*enclave.Host, len(plan))
		parked := make(map[*enclave.Host]int)
		for i := range plan {
			placed[i] = hosts[i%2]
			parked[placed[i]] += overhead
		}
		h := &faultyHandoff{failFrom: from, failBatch: 2}
		g, err := f.NewShardGroup(ShardOptions{
			Plan: plan, Hosts: placed, Batch: 2, OverheadBytes: overhead, Seed: 5, Handoff: h,
		})
		if err != nil {
			t.Fatalf("NewShardGroup: %v", err)
		}
		if !g.Report().Streaming {
			t.Fatalf("group over %v does not stream", plan)
		}
		checkParked := func(when string) {
			t.Helper()
			for i, host := range hosts {
				if got := host.Resident(); got != parked[host] {
					t.Fatalf("fail at %d->%d, %s: host %d holds %d bytes, want the parked %d", from, from+1, when, i, got, parked[host])
				}
			}
		}
		for b := 1; b <= 3; b++ {
			before := g.Report().ShardRestores
			_, err := g.ClassifyBatch(test.Images[b*2*in : (b+1)*2*in])
			switch {
			case b == int(h.failBatch) && !errors.Is(err, errCarry):
				t.Fatalf("fail at %d->%d: batch %d = %v, want the injected fault", from, from+1, b, err)
			case b == int(h.failBatch):
				// Stages 0..from each read their range; the batch never
				// reached the stages past the failed hand-off.
				if got := g.Report().ShardRestores - before; got != uint64(from+1) {
					t.Fatalf("fail at %d->%d: failed batch restored %d ranges, want %d", from, from+1, got, from+1)
				}
			case err != nil:
				t.Fatalf("fail at %d->%d: batch %d: %v", from, from+1, b, err)
			}
			checkParked(fmt.Sprintf("after batch %d", b))
		}
		if err := g.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}
