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
// whose budget forces streaming but leaves room for double-buffering
// (two hot ranges plus overheads).
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

// TestShardGroupPrefetchOverlapsRestores: a streaming group's
// double-buffered restores overlap compute — some restores are
// prefetched, and fewer batches stall on a full restore than there are
// restores — while it answers exactly as the training enclave does and
// still pays zero page faults: the prefetcher charges its reservations
// against the host headroom, so the residency bound holds.
func TestShardGroupPrefetchOverlapsRestores(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	want, err := f.ClassifyBatch(test.Images)
	if err != nil {
		t.Fatalf("framework ClassifyBatch: %v", err)
	}
	// Roomy enough that the headroom gate admits prefetches (two hot
	// ranges at once), tight enough that the plan still streams.
	g, host := streamingGroup(t, f, 192<<10, 5)
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
	if rep.ShardPrefetched == 0 {
		t.Fatal("prefetcher never ran; headroom gate too tight for the test host")
	}
	if rep.ShardStalls >= rep.ShardRestores {
		t.Fatalf("prefetch overlapped nothing: %d stalls in %d restores", rep.ShardStalls, rep.ShardRestores)
	}
	if s := host.Stats(); s.PageSwaps != 0 {
		t.Fatalf("prefetching group paid %d faults; want 0 under the knee", s.PageSwaps)
	}
}

// TestShardGroupPrefetchQuiescesOnRefresh drives concurrent classify
// traffic while Refresh and Rotate flip versions: the prefetcher must
// quiesce with the pipeline (no background restore may read a handle
// being swapped), every batch must answer, and the group must stay
// coherent. Run with -race.
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
	if _, err := g.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	close(stop)
	wg.Wait()
	if g.Iteration() != f.Iteration() {
		t.Fatalf("group iter %d, framework %d", g.Iteration(), f.Iteration())
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

func (h *faultyHandoff) Bind(from, to int, src, dst *enclave.Enclave) error { return nil }

func (h *faultyHandoff) Carry(from, to int, sealed []byte) error {
	if from == h.failFrom && h.crossings.Add(1) == h.failBatch {
		return errCarry
	}
	return nil
}

// TestShardGroupFailedHandoffParksEverything: a streaming batch whose
// sealed activations cannot cross a stage boundary fails there without
// leaking the range that stage prefetched downstream for it — when the
// batch returns, every host holds only its parked shards' overhead —
// and the next batch serves. The stages alternate between two hosts,
// so every prefetch is admitted and the failed batch always leaves one
// in flight or landed. Run with -race.
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
			before := g.Report().ShardPrefetched
			_, err := g.ClassifyBatch(test.Images[b*2*in : (b+1)*2*in])
			switch {
			case b == int(h.failBatch) && !errors.Is(err, errCarry):
				t.Fatalf("fail at %d->%d: batch %d = %v, want the injected fault", from, from+1, b, err)
			case b == int(h.failBatch):
				// Stages 0..from each prefetched their successor, the
				// last of them for a stage the batch never reached.
				if got := g.Report().ShardPrefetched - before; got != uint64(from+1) {
					t.Fatalf("fail at %d->%d: failed batch prefetched %d ranges, want %d", from, from+1, got, from+1)
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
