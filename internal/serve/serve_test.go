package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// newTrainedFramework trains a small model for a few iterations so
// serving has real weights to restore.
func newTrainedFramework(t testing.TB, iters int) (*core.Framework, *mnist.Dataset) {
	t.Helper()
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     64 << 20,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ds := mnist.Synthetic(256, 7)
	train, test, err := ds.Split(192)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := f.LoadDataset(train); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), core.StopAt(iters)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return f, test
}

// TestServeMatchesSequentialInfer drives every test image through the
// server concurrently and checks each prediction equals the sequential
// enclave classification — and therefore that batched serving yields
// exactly Framework.Infer's accuracy.
func TestServeMatchesSequentialInfer(t *testing.T) {
	f, test := newTrainedFramework(t, 8)

	want := make([]int, test.N)
	for i := 0; i < test.N; i++ {
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify %d: %v", i, err)
		}
		want[i] = cls
	}
	wantAcc, err := f.Infer(test)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}

	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

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

	correct := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("image %d: served class %d, sequential class %d", i, got[i], want[i])
		}
		if got[i] == test.Labels[i] {
			correct++
		}
	}
	if gotAcc := float64(correct) / float64(test.N); gotAcc != wantAcc {
		t.Fatalf("served accuracy %f, Infer accuracy %f", gotAcc, wantAcc)
	}
}

// TestConcurrentClientsManyWorkers hammers a 4-worker server from many
// goroutines; run under -race this is the acceptance concurrency
// check.
func TestConcurrentClientsManyWorkers(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 4, MaxBatch: 16, MaxQueueLatency: 500 * time.Microsecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				img := test.Image((c*perClient + i) % test.N)
				if _, err := s.Classify(context.Background(), img); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("Classify: %v", err)
	}

	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("stats count %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.Batches == 0 || st.AvgBatch < 1 {
		t.Fatalf("implausible batch stats: %+v", st)
	}
	if st.AvgLatency <= 0 || st.MaxLatency < st.AvgLatency {
		t.Fatalf("implausible latency stats: %+v", st)
	}
}

// TestQueueLatencyFlush checks MaxQueueLatency is an upper bound on the
// wait for company, not a wait: a lone request on an idle server comes
// back in a batch of one without the (here enormous) cap being timed at
// all.
func TestQueueLatencyFlush(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	const maxLat = 10 * time.Second
	s, err := New(context.Background(), f, Options{Workers: 1, MaxBatch: 64, MaxQueueLatency: maxLat})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	start := time.Now()
	pred, err := s.Classify(context.Background(), test.Image(0))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	elapsed := time.Since(start)
	if pred.BatchSize != 1 {
		t.Fatalf("lone request served in batch of %d", pred.BatchSize)
	}
	if elapsed > maxLat/2 {
		t.Fatalf("lone request on an idle server took %v; the %v cap was waited out", elapsed, maxLat)
	}
	if d := lingered(s); d != 0 {
		t.Fatalf("lone request on a fresh idle server lingered %v for company", d)
	}
}

// TestBatchCoalescing checks that requests which queue up while the
// worker is busy ride one micro-batch (dispatch at MaxBatch, not per
// request).
func TestBatchCoalescing(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	const n = 8
	s, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: n})
	defer s.Close()
	occupied := g.occupy(t, s, test.Image(0))

	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := s.Classify(context.Background(), test.Image(i))
			if err == nil {
				sizes[i] = pred.BatchSize
			}
		}(i)
	}
	awaitQueued(t, s, n)
	g.open()
	occupied()
	wg.Wait()
	for _, b := range sizes {
		if b != n {
			t.Fatalf("%d requests queued behind one busy worker rode batches of %v, want one batch of %d", n, sizes, n)
		}
	}
}

// TestGracefulShutdown closes the server under load: every accepted
// request must complete, later ones must fail with ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}

	const n = 60
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Classify(context.Background(), test.Image(i%test.N))
			results <- err
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let some requests enqueue
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(results)
	completed := 0
	for err := range results {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
		default:
			t.Fatalf("shutdown produced unexpected error: %v", err)
		}
	}
	if completed == 0 {
		t.Fatal("no in-flight request completed across Close")
	}

	if _, err := s.Classify(context.Background(), test.Image(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Classify = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestRefreshPicksUpNewModel trains further after the server started
// and checks Refresh advances the served iteration.
func TestRefreshPicksUpNewModel(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if got := s.Iteration(); got != 4 {
		t.Fatalf("served iteration %d, want 4", got)
	}

	if err := f.Train(context.Background(), core.StopAt(8)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	iter, err := s.Refresh(context.Background())
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if iter != 8 || s.Iteration() != 8 {
		t.Fatalf("refreshed iteration %d/%d, want 8", iter, s.Iteration())
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify after refresh: %v", err)
	}
}

// TestClassifyContextCancel checks a caller can abandon a queued
// request without wedging the server.
func TestClassifyContextCancel(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 1, MaxBatch: 4, MaxQueueLatency: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Classify(ctx, test.Image(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Classify = %v, want context.Canceled", err)
	}
	// The server still serves after an abandoned request.
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify after cancel: %v", err)
	}
}

// TestServeNotServableSentinels checks the fail-fast sentinels: a
// dataset-less framework with nothing in PM, and a crashed framework,
// both reject with errors matching ErrNotServable and the underlying
// core cause, instead of failing deep inside replica restore.
func TestServeNotServableSentinels(t *testing.T) {
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     64 << 20,
		MirrorFreq:  -1, // mirroring disabled
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = New(context.Background(), f, Options{})
	if !errors.Is(err, ErrNotServable) {
		t.Fatalf("dataset-less Serve = %v, want ErrNotServable", err)
	}
	if !errors.Is(err, core.ErrNoServableModel) {
		t.Fatalf("dataset-less Serve = %v, want ErrNoServableModel cause", err)
	}

	crashed, _ := newTrainedFramework(t, 2)
	crashed.Crash()
	_, err = New(context.Background(), crashed, Options{})
	if !errors.Is(err, ErrNotServable) {
		t.Fatalf("crashed Serve = %v, want ErrNotServable", err)
	}
	if !errors.Is(err, core.ErrCrashedDown) {
		t.Fatalf("crashed Serve = %v, want ErrCrashedDown cause", err)
	}
}

// TestBadImageSize checks input validation.
func TestBadImageSize(t *testing.T) {
	f, _ := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if _, err := s.Classify(context.Background(), make([]float32, 3)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("bad image = %v, want ErrBadImage", err)
	}
}
