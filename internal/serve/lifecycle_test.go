package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plinius/internal/core"
)

// TestConcurrentTrainRefreshRotateClassify is the v2 acceptance
// scenario, meant to run under -race: one goroutine trains with a
// cancellable context while clients classify continuously and the
// control plane interleaves zero-downtime refreshes and key rotations.
// Invariants checked:
//
//   - no data race (the -race runner enforces it);
//   - no serving gap: every request that is not shed by admission
//     control gets an answer, throughout refreshes and rotations;
//   - cancellation stops training at a mirror-consistent boundary, and
//     Crash + Recover resumes from exactly the cancelled iteration;
//   - the server keeps serving across the framework's down window and
//     can Refresh again after Recover.
func TestConcurrentTrainRefreshRotateClassify(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{
		Workers:         3,
		MaxBatch:        8,
		MaxQueueLatency: 500 * time.Microsecond,
		QueueDepth:      256,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	// Continuous clients.
	var (
		served, shed atomic.Uint64
		stopClients  = make(chan struct{})
		clientsWg    sync.WaitGroup
	)
	for c := 0; c < 6; c++ {
		clientsWg.Add(1)
		go func(c int) {
			defer clientsWg.Done()
			for i := c; ; i += 6 {
				select {
				case <-stopClients:
					return
				default:
				}
				_, err := s.Classify(context.Background(), test.Image(i%test.N))
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("Classify during lifecycle churn: %v", err)
					return
				}
			}
		}(c)
	}

	// Open-ended training run (no StopAt): cancellation is the exit.
	trainCtx, cancelTrain := context.WithCancel(context.Background())
	trainDone := make(chan error, 1)
	go func() { trainDone <- f.Train(trainCtx) }()

	// Control plane: refreshes and key rotations while everything runs.
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := f.Publish(); err != nil {
			t.Fatalf("round %d Publish: %v", round, err)
		}
		iter, err := s.Refresh(ctx)
		if err != nil {
			t.Fatalf("round %d Refresh: %v", round, err)
		}
		if iter < 4 {
			t.Fatalf("round %d refreshed to iteration %d, below the starting model", round, iter)
		}
		verBefore := s.Version()
		ver, err := s.RotateKey(ctx)
		if err != nil {
			t.Fatalf("round %d RotateKey: %v", round, err)
		}
		if ver <= verBefore {
			t.Fatalf("round %d RotateKey version %d did not advance past %d", round, ver, verBefore)
		}
	}

	// Cancel training mid-run; the error must be the context's, and
	// the cancelled iteration must be mirror-consistent.
	cancelTrain()
	if err := <-trainDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Train = %v, want context.Canceled", err)
	}
	cancelled := f.Iteration()
	if cancelled <= 4 {
		t.Fatalf("training made no progress before cancel: iteration %d", cancelled)
	}

	// Crash the framework; the serving pool keeps answering from its
	// in-enclave weights while the framework is down.
	f.Crash()
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify while framework down: %v", err)
	}
	if _, err := s.Refresh(ctx); err == nil {
		t.Fatal("Refresh succeeded while the framework was crashed")
	}

	// Recover: training resumes from the cancelled iteration, and the
	// control plane works again.
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != cancelled {
		t.Fatalf("recovered at iteration %d, want the cancelled iteration %d", got, cancelled)
	}
	if err := f.Train(context.Background(), core.StopAt(cancelled+2)); err != nil {
		t.Fatalf("Train after recover: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish after recover: %v", err)
	}
	if _, err := s.Refresh(ctx); err != nil {
		t.Fatalf("Refresh after recover: %v", err)
	}
	if got := s.Iteration(); got != cancelled+2 {
		t.Fatalf("served iteration after recover %d, want %d", got, cancelled+2)
	}

	close(stopClients)
	clientsWg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was served during the lifecycle churn")
	}
	st := s.Stats()
	// +1 for the direct Classify issued while the framework was down.
	if st.Requests != served.Load()+1 {
		t.Fatalf("stats.Requests %d, clients saw %d (+1 direct)", st.Requests, served.Load())
	}
	t.Logf("lifecycle churn: served=%d shed=%d expired=%d batches=%d finalVersion=%d",
		st.Requests, shed.Load(), st.Expired, st.Batches, s.Version())
}

// TestServeAfterLazyRecoverServesTrainedModel guards the Recover(false)
// trap: serving right after a lazy recover must publish the mirrored
// trained model, not the fresh random enclave weights.
func TestServeAfterLazyRecoverServesTrainedModel(t *testing.T) {
	f, test := newTrainedFramework(t, 6)
	want := make([]int, 8)
	for i := range want {
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("pre-crash Classify %d: %v", i, err)
		}
		want[i] = cls
	}
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server after lazy recover: %v", err)
	}
	defer s.Close()
	if got := s.Iteration(); got != 6 {
		t.Fatalf("serving iteration %d after lazy recover, want the mirrored 6", got)
	}
	for i, w := range want {
		pred, err := s.Classify(context.Background(), test.Image(i))
		if err != nil {
			t.Fatalf("Classify %d: %v", i, err)
		}
		if pred.Class != w {
			t.Fatalf("image %d: served %d, trained model said %d — random weights published?", i, pred.Class, w)
		}
	}
}

// TestRotateKeyServesThroughRotation pins down the no-gap property in
// isolation: predictions before, during and after a rotation are all
// answered, and the served version advances.
func TestRotateKeyServesThroughRotation(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	before, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify before rotate: %v", err)
	}
	oldKey := f.Key()
	ver, err := s.RotateKey(context.Background())
	if err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if string(f.Key()) == string(oldKey) {
		t.Fatal("RotateKey left the framework key unchanged")
	}
	if ver != s.Version() || ver < 2 {
		t.Fatalf("served version %d after rotation publishing %d", s.Version(), ver)
	}
	after, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify after rotate: %v", err)
	}
	// Same weights (rotation republished the same parameters), so the
	// same image classifies identically under the new key.
	if before.Class != after.Class {
		t.Fatalf("rotation changed predictions: %d -> %d", before.Class, after.Class)
	}
	if after.ModelVersion != ver {
		t.Fatalf("prediction served by version %d, want %d", after.ModelVersion, ver)
	}
}

// TestRefreshAfterDirectRotateKey: a Framework.RotateKey the server did
// not drive leaves the replicas holding the old key; Refresh provisions
// the new one into each and serves the rotated version.
func TestRefreshAfterDirectRotateKey(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	before, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify before rotate: %v", err)
	}
	ver, err := f.RotateKey()
	if err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh after RotateKey: %v", err)
	}
	if s.Version() != ver {
		t.Fatalf("server on version %d after Refresh, want the rotated %d", s.Version(), ver)
	}
	for i := 0; i < 4; i++ { // more requests than replicas: each one answers
		after, err := s.Classify(context.Background(), test.Image(0))
		if err != nil {
			t.Fatalf("Classify after Refresh: %v", err)
		}
		if after.ModelVersion != ver || after.Class != before.Class {
			t.Fatalf("served version %d class %d, want version %d class %d", after.ModelVersion, after.Class, ver, before.Class)
		}
	}
}

// TestRefreshRacingRotateKey: Framework.RotateKey races Server.Refresh
// in a loop while clients classify. Every request is answered, every
// Refresh either leaves the server on a version its replicas can open
// or fails with the old version still serving, and once the rotations
// stop a Refresh serves the last one. Meant to run under -race.
func TestRefreshRacingRotateKey(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{
		Workers:         2,
		MaxBatch:        4,
		MaxQueueLatency: 500 * time.Microsecond,
		QueueDepth:      256,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	// Every goroutine is stopped and waited for before the server
	// closes, on the failure paths too.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	defer func() {
		close(stop)
		bg.Wait()
	}()
	for c := 0; c < 3; c++ {
		bg.Add(1)
		go func(c int) {
			defer bg.Done()
			for i := c; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("Classify while rotations race refreshes: %v", err)
					return
				}
			}
		}(c)
	}
	const rounds = 8
	rotated := make(chan uint64, 1)
	bg.Add(1)
	go func() {
		defer bg.Done()
		var last uint64
		for i := 0; i < rounds; i++ {
			ver, err := f.RotateKey()
			if err != nil {
				t.Errorf("RotateKey: %v", err)
				break
			}
			last = ver
		}
		rotated <- last
	}()
	for i := 0; i < rounds; i++ {
		old := s.Version()
		if _, err := s.Refresh(context.Background()); err != nil && s.Version() != old {
			t.Fatalf("failed Refresh moved the server from version %d to %d: %v", old, s.Version(), err)
		}
		if _, err := s.Classify(context.Background(), test.Image(i)); err != nil {
			t.Fatalf("Classify after Refresh %d: %v", i, err)
		}
	}
	last := <-rotated
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh after the rotations: %v", err)
	}
	if s.Version() != last {
		t.Fatalf("server on version %d, want the last rotation's %d", s.Version(), last)
	}
}

// TestRefreshIsZeroDowntimeUnderLoad refreshes repeatedly while
// clients hammer the pool; every non-shed request must be answered.
func TestRefreshIsZeroDowntimeUnderLoad(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 3, MaxBatch: 8, MaxQueueLatency: 500 * time.Microsecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Uint64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("Classify during refresh churn: %v", err)
					return
				} else if err == nil {
					served.Add(1)
				}
			}
		}(c)
	}
	for round := 0; round < 5; round++ {
		if err := f.Train(context.Background(), core.StopAt(4+round+1)); err != nil {
			t.Fatalf("Train round %d: %v", round, err)
		}
		if _, err := f.Publish(); err != nil {
			t.Fatalf("Publish round %d: %v", round, err)
		}
		iter, err := s.Refresh(context.Background())
		if err != nil {
			t.Fatalf("Refresh round %d: %v", round, err)
		}
		if iter != 4+round+1 {
			t.Fatalf("Refresh round %d restored iteration %d, want %d", round, iter, 4+round+1)
		}
		// Every round sees the clients served: on one core nothing
		// else makes this goroutine yield to them.
		for before := served.Load(); served.Load() == before; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("nothing served during refresh churn")
	}
}
