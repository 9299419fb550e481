package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOverloadedAtQueueBound fills a deliberately tiny queue behind a
// busy worker and checks admission control fires: every arrival beyond
// the queue bound fails fast with ErrOverloaded, every accepted request
// is answered, and the counters agree. Run under -race this also checks
// the enqueue fast path.
func TestOverloadedAtQueueBound(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	const depth = 2
	s, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: 1, QueueDepth: depth})
	defer s.Close()
	occupied := g.occupy(t, s, test.Image(0))

	var (
		wg     sync.WaitGroup
		served atomic.Uint64
	)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Classify(context.Background(), test.Image(i)); err != nil {
				t.Errorf("queued request %d: %v", i, err)
				return
			}
			served.Add(1)
		}(i)
	}
	awaitQueued(t, s, depth)
	const rejected = 16
	for i := 0; i < rejected; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("arrival %d at a full queue = %v, want ErrOverloaded", i, err)
		}
	}
	g.open()
	occupied()
	wg.Wait()
	st := s.Stats()
	if st.Rejected != rejected {
		t.Fatalf("stats.Rejected = %d, clients saw %d", st.Rejected, rejected)
	}
	// The request that kept the worker busy, and the queued ones.
	if st.Requests != 1+served.Load() || served.Load() != depth {
		t.Fatalf("stats.Requests = %d with %d of %d queued requests served", st.Requests, served.Load(), depth)
	}
}

// TestExpiredQueuedRequestsSkipBatchSlots queues requests behind a busy
// worker, cancels some of them while queued, and checks the cancelled
// ones are dropped without ever occupying a micro-batch slot: the
// surviving request is served in a batch of one and the drops are
// counted as Expired.
func TestExpiredQueuedRequestsSkipBatchSlots(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: 64})
	defer s.Close()
	occupied := g.occupy(t, s, test.Image(0))

	const cancelled = 2
	ctx, cancel := context.WithCancel(context.Background())
	var cancelledWg sync.WaitGroup
	for i := 0; i < cancelled; i++ {
		cancelledWg.Add(1)
		go func(i int) {
			defer cancelledWg.Done()
			_, err := s.Classify(ctx, test.Image(i))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled request %d = %v, want context.Canceled", i, err)
			}
		}(i)
	}
	type outcome struct {
		pred Prediction
		err  error
	}
	survivor := make(chan outcome, 1)
	go func() {
		pred, err := s.Classify(context.Background(), test.Image(7))
		survivor <- outcome{pred, err}
	}()

	// All three wait in the queue while the only worker is busy; two
	// of them are cancelled there.
	awaitQueued(t, s, cancelled+1)
	cancel()
	cancelledWg.Wait()
	g.open()
	occupied()

	res := <-survivor
	if res.err != nil {
		t.Fatalf("surviving request: %v", res.err)
	}
	if res.pred.BatchSize != 1 {
		t.Fatalf("survivor rode a batch of %d; expired requests consumed batch slots", res.pred.BatchSize)
	}
	st := s.Stats()
	if st.Expired != cancelled {
		t.Fatalf("stats.Expired = %d, want %d", st.Expired, cancelled)
	}
	// The request that kept the worker busy, and the survivor.
	if st.Requests != 2 {
		t.Fatalf("stats.Requests = %d, want 2", st.Requests)
	}
}

// TestDeadlineExpiredQueuedRequest is the deadline (not cancel) variant:
// a request whose deadline lapses while queued returns DeadlineExceeded
// and never reaches a worker.
func TestDeadlineExpiredQueuedRequest(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: 64})
	defer s.Close()
	occupied := g.occupy(t, s, test.Image(0))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Classify(ctx, test.Image(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired Classify = %v, want DeadlineExceeded", err)
	}
	g.open()
	occupied()
	// The lone live request after it still gets a batch of one.
	pred, err := s.Classify(context.Background(), test.Image(1))
	if err != nil {
		t.Fatalf("follow-up Classify: %v", err)
	}
	if pred.BatchSize != 1 {
		t.Fatalf("follow-up rode batch of %d, want 1", pred.BatchSize)
	}
	if st := s.Stats(); st.Expired != 1 || st.Batches != 2 {
		t.Fatalf("deadline drop not counted, or it took a batch: %+v", st)
	}
}
