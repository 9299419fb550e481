package par

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the rest of the test at GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// occupancy records the most bodies running on pool workers at once,
// telling a worker from a caller by the worker's frame on the stack
// rather than by the pool's own counters.
type occupancy struct {
	mu             sync.Mutex
	onWorkers, max int
}

// loop runs For(n, 1, body) and counts the ranges run by workers.
func (o *occupancy) loop(n int, body func()) {
	For(n, 1, func(lo, hi int) {
		buf := make([]byte, 4<<10)
		worker := bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("par.serve("))
		if worker {
			o.mu.Lock()
			o.onWorkers++
			o.max = max(o.max, o.onWorkers)
			o.mu.Unlock()
		}
		body()
		if worker {
			o.mu.Lock()
			o.onWorkers--
			o.mu.Unlock()
		}
	})
}

// TestForCoversRange: every index is visited exactly once, whatever the
// core count, the range size and how the ranges are shared out.
func TestForCoversRange(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(t, procs)
		for _, n := range []int{0, 1, 7, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 1000} {
				hits := make([]atomic.Int32, n)
				For(n, grain, func(lo, hi int) {
					if lo >= hi || hi > n || (procs > 1 && hi-lo > max(grain, 1)) {
						t.Errorf("procs=%d n=%d grain=%d: range [%d,%d)", procs, n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("procs=%d n=%d grain=%d: index %d visited %d times", procs, n, grain, i, h)
					}
				}
			}
		}
	}
}

// spin burns about d of CPU, so ranges overlap in time.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestConcurrentForsShareThePool: eight callers looping at once, and
// loops nested two deep, never have more than GOMAXPROCS-1 pool
// workers running bodies, and every index still runs once.
func TestConcurrentForsShareThePool(t *testing.T) {
	for _, procs := range []int{2, 4} {
		withProcs(t, procs)
		var o occupancy
		var wg sync.WaitGroup
		var total atomic.Int64
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					o.loop(32, func() {
						spin(10 * time.Microsecond)
						total.Add(1)
					})
				}
			}()
		}
		wg.Wait()
		if got := total.Load(); got != 8*20*32 {
			t.Fatalf("procs=%d: %d indices run, want %d", procs, got, 8*20*32)
		}
		if o.max > procs-1 {
			t.Fatalf("procs=%d: %d bodies on pool workers at once, want <= %d", procs, o.max, procs-1)
		}

		var inner occupancy
		total.Store(0)
		For(16, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				inner.loop(16, func() {
					spin(10 * time.Microsecond)
					total.Add(1)
				})
			}
		})
		if got := total.Load(); got != 16*16 {
			t.Fatalf("procs=%d nested: %d inner indices run, want %d", procs, got, 16*16)
		}
		if inner.max > procs-1 {
			t.Fatalf("procs=%d nested: %d inner bodies on pool workers at once, want <= %d", procs, inner.max, procs-1)
		}
	}
}

// TestIdleWorkerJoinsRunningFor: a worker that finishes its loop joins
// one still running. The first loop holds the only worker and its
// caller until the second loop has started with no idle worker; the
// second loop's first range then releases the first loop and waits for
// a second range to start, which only the freed worker can do.
func TestIdleWorkerJoinsRunningFor(t *testing.T) {
	withProcs(t, 2)
	var stuck atomic.Bool
	// await waits for ready() or gives up after a while.
	await := func(ready func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !ready(); runtime.Gosched() {
			if time.Now().After(deadline) {
				stuck.Store(true)
				return
			}
		}
	}
	var first, second atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		For(2, 1, func(lo, hi int) {
			first.Add(1)
			await(func() bool { return second.Load() > 0 })
		})
	}()
	await(func() bool { return first.Load() == 2 })
	For(2, 1, func(lo, hi int) {
		second.Add(1)
		await(func() bool { return second.Load() == 2 })
	})
	<-done
	if stuck.Load() {
		t.Fatal("the worker freed by the first loop never joined the second")
	}
}

// TestBackToBackForsBothFork: a For issued the moment the previous one
// returns still gets a worker. Each loop's two ranges wait for each
// other, which only a worker running the second range can end; a loop
// left to its caller alone would time out.
func TestBackToBackForsBothFork(t *testing.T) {
	withProcs(t, 2)
	for r := 0; r < 1000; r++ {
		var arrived atomic.Int32
		var stuck atomic.Bool
		For(2, 1, func(lo, hi int) {
			arrived.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for arrived.Load() < 2 {
				if time.Now().After(deadline) {
					stuck.Store(true)
					return
				}
				runtime.Gosched()
			}
		})
		if stuck.Load() {
			t.Fatalf("loop %d ran on its caller alone: no idle worker right after the previous loop", r)
		}
	}
}

// TestForErrReturnsFirstErrorAndStops: ForErr returns nil when every
// range succeeds, and otherwise one of the errors the ranges returned,
// starting no range after the failure is seen.
func TestForErrReturnsFirstErrorAndStops(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		var ran atomic.Int64
		if err := ForErr(100, 3, func(lo, hi int) error {
			ran.Add(int64(hi - lo))
			return nil
		}); err != nil || ran.Load() != 100 {
			t.Fatalf("GOMAXPROCS %d: clean ForErr = %v over %d indices, want nil over 100", procs, err, ran.Load())
		}
		errA, errB := errors.New("a"), errors.New("b")
		ran.Store(0)
		err := ForErr(1000, 1, func(lo, hi int) error {
			ran.Add(1)
			switch lo {
			case 0:
				return errA
			case 1:
				return errB
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != errA && err != errB {
			t.Fatalf("GOMAXPROCS %d: ForErr = %v, want a or b", procs, err)
		}
		// Only ranges claimed before the failure was recorded run; the
		// others take a millisecond each, so all of them running means
		// none was skipped.
		if n := ran.Load(); n == 1000 {
			t.Fatalf("GOMAXPROCS %d: all 1000 ranges ran after the first failed", procs)
		}
	}
}
