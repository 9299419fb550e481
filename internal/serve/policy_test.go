package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/obs"
)

type classifyFunc = func(context.Context, []float32) ([]int, error)

// newServerWith builds a server, lets wrap replace what each backend
// classifies with, and only then starts the workers.
func newServerWith(t testing.TB, f *core.Framework, opts Options, wrap func(*Server, classifyFunc) classifyFunc) *Server {
	t.Helper()
	s, err := build(context.Background(), f, opts)
	if err != nil {
		t.Fatalf("build server: %v", err)
	}
	for _, b := range s.backends {
		b.classify = wrap(s, b.classify)
	}
	s.start()
	return s
}

// gate makes "every worker is busy" a state a test can set up and hold:
// a batch that reaches a backend reports its size on entered and waits
// there until the test lets it pass.
type gate struct {
	entered chan int
	release chan struct{}
}

// newGatedServer starts a server whose backends all sit behind one
// closed gate.
func newGatedServer(t testing.TB, f *core.Framework, opts Options) (*Server, *gate) {
	t.Helper()
	g := &gate{entered: make(chan int, 64), release: make(chan struct{})} // 64: more batches than any test gates
	return newServerWith(t, f, opts, func(s *Server, classify classifyFunc) classifyFunc {
		return func(ctx context.Context, images []float32) ([]int, error) {
			g.entered <- len(images) / s.inputSize
			<-g.release
			return classify(ctx, images)
		}
	}), g
}

// open lets every held and every later batch through.
func (g *gate) open() { close(g.release) }

// occupy sends one request per worker, each answered only once the
// gate opens, and returns when every worker holds a batch at the gate.
// The returned wait blocks until those requests are answered.
func (g *gate) occupy(t testing.TB, s *Server, image []float32) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < s.Workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Classify(context.Background(), image); err != nil {
				t.Errorf("request occupying a worker: %v", err)
			}
		}()
		// One at a time: a second request sent before the first is at
		// the gate could ride the same batch and leave a worker idle.
		if n := <-g.entered; n != 1 {
			t.Fatalf("request occupying a worker rode a batch of %d", n)
		}
	}
	return wg.Wait
}

// awaitQueued returns once n requests sit in the admission queue.
func awaitQueued(t testing.TB, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(s.reqCh) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(s.reqCh), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// instant is a backend that classifies in no time.
func instant(s *Server, _ classifyFunc) classifyFunc {
	return func(_ context.Context, images []float32) ([]int, error) {
		return make([]int, len(images)/s.inputSize), nil
	}
}

// quick is a batch service time too short to be worth waiting a
// quarter of. Tests store it rather than trust a measured one: a
// descheduled worker measures milliseconds for an instant batch.
const quick = 200 * time.Microsecond

func isClosed(s *Server) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

func lingered(s *Server) time.Duration {
	return time.Duration(obs.Flatten(s.Metrics())["serve_batch_linger_seconds_total"] * float64(time.Second))
}

// TestIdleServerNeverDelaysLoneRequest: with workers idle and batches
// quick, no request waits for company — no linger is ever timed, and
// the huge cap plays no part.
func TestIdleServerNeverDelaysLoneRequest(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, workers := range []int{1, 3} {
		s := newServerWith(t, f, Options{Workers: workers, MaxBatch: 64, MaxQueueLatency: time.Hour}, instant)
		for i := 0; i < 50; i++ {
			if i > 0 {
				s.service.Store(int64(quick))
			}
			pred, err := s.Classify(context.Background(), test.Image(i%test.N))
			if err != nil {
				t.Fatalf("workers=%d Classify %d: %v", workers, i, err)
			}
			if pred.BatchSize != 1 {
				t.Fatalf("workers=%d lone request %d rode a batch of %d", workers, i, pred.BatchSize)
			}
		}
		if d := lingered(s); d != 0 {
			t.Fatalf("workers=%d: idle server lingered %v for company", workers, d)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestBusyWorkersAccumulateOneBatch: while every worker is busy the
// queue grows, and the first worker to come free takes all of it as one
// batch, up to MaxBatch.
func TestBusyWorkersAccumulateOneBatch(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, tc := range []struct {
		name                     string
		workers, maxBatch, queue int
		wantSizes                map[int]int // batch size -> requests that rode one
	}{
		{"one worker, queue fits a batch", 1, 8, 5, map[int]int{1: 1, 5: 5}},
		{"one worker, queue overflows a batch", 1, 4, 6, map[int]int{1: 1, 4: 4, 2: 2}},
		{"two workers share the backlog", 2, 4, 6, map[int]int{1: 2, 4: 4, 2: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, g := newGatedServer(t, f, Options{Workers: tc.workers, MaxBatch: tc.maxBatch, MaxQueueLatency: 50 * time.Millisecond})
			defer s.Close()
			occupied := g.occupy(t, s, test.Image(0))
			var (
				mu    sync.Mutex
				sizes = map[int]int{1: tc.workers}
				wg    sync.WaitGroup
			)
			for i := 0; i < tc.queue; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					pred, err := s.Classify(context.Background(), test.Image(i))
					if err != nil {
						t.Errorf("queued request %d: %v", i, err)
						return
					}
					mu.Lock()
					sizes[pred.BatchSize]++
					mu.Unlock()
				}(i)
			}
			awaitQueued(t, s, tc.queue)
			g.open()
			occupied()
			wg.Wait()
			for size, n := range tc.wantSizes {
				if sizes[size] != n {
					t.Fatalf("batch sizes -> riders %v, want %v", sizes, tc.wantSizes)
				}
			}
			if len(sizes) != len(tc.wantSizes) {
				t.Fatalf("batch sizes -> riders %v, want %v", sizes, tc.wantSizes)
			}
		})
	}
}

// TestLingerFollowsMeasuredServiceTime: a backend whose batches are
// slow makes the next lone request wait for company — a quarter of the
// measured service time, never more than MaxQueueLatency — and a quick
// backend arms no timer at all.
func TestLingerFollowsMeasuredServiceTime(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, tc := range []struct {
		name     string
		service  time.Duration // slept in every batch; zero stores quick instead
		cap      time.Duration
		min, max time.Duration // bounds on the second request's linger
	}{
		{"slow backend lingers a quarter of its service time", 20 * time.Millisecond, time.Hour, 5 * time.Millisecond, time.Second},
		{"the cap bounds the linger", 100 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 20 * time.Millisecond},
		{"quick backend arms no timer", 0, time.Hour, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServerWith(t, f, Options{Workers: 1, MaxBatch: 8, MaxQueueLatency: tc.cap}, func(s *Server, _ classifyFunc) classifyFunc {
				return func(ctx context.Context, images []float32) ([]int, error) {
					time.Sleep(tc.service)
					return instant(s, nil)(ctx, images)
				}
			})
			defer s.Close()
			// Nothing measured yet: the first request cannot linger.
			if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
				t.Fatalf("first Classify: %v", err)
			}
			if d := lingered(s); d != 0 {
				t.Fatalf("first request lingered %v before any service time was measured", d)
			}
			if got := time.Duration(s.service.Load()); got < tc.service {
				t.Fatalf("measured service time %v, below the injected %v", got, tc.service)
			}
			if tc.service == 0 {
				s.service.Store(int64(quick))
			}
			start := time.Now()
			pred, err := s.Classify(context.Background(), test.Image(1))
			if err != nil {
				t.Fatalf("second Classify: %v", err)
			}
			elapsed := time.Since(start)
			if pred.BatchSize != 1 {
				t.Fatalf("lone request rode a batch of %d", pred.BatchSize)
			}
			// A timer never fires early, so min is exact; max only has
			// to tell the cap from the quarter and the quarter from the
			// hour.
			if d := lingered(s); d < tc.min || d > tc.max {
				t.Fatalf("second request lingered %v, want within [%v, %v]", d, tc.min, tc.max)
			}
			if limit := tc.service + tc.max + time.Second; elapsed > limit {
				t.Fatalf("second request took %v, want under %v", elapsed, limit)
			}
		})
	}
}

// TestServiceFloorIgnoresSlowOutlier: the service time the linger is
// derived from is a floor. One slow batch — a collection, a descheduled
// worker — raises it by an eighth, not to the outlier, so the requests
// behind it still dispatch at once; one quicker batch lowers it at once.
func TestServiceFloorIgnoresSlowOutlier(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	var hiccup atomic.Int64
	s := newServerWith(t, f, Options{Workers: 1, MaxBatch: 8, MaxQueueLatency: 5 * time.Millisecond}, func(s *Server, _ classifyFunc) classifyFunc {
		return func(ctx context.Context, images []float32) ([]int, error) {
			time.Sleep(time.Duration(hiccup.Swap(0)))
			return instant(s, nil)(ctx, images)
		}
	})
	defer s.Close()
	classify := func() {
		t.Helper()
		if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	s.service.Store(int64(quick))
	hiccup.Store(int64(50 * time.Millisecond))
	classify()
	if got, limit := time.Duration(s.service.Load()), quick+quick/8; got > limit {
		t.Fatalf("a 50ms outlier moved the %v service floor to %v, want at most %v", quick, got, limit)
	}
	classify()
	if d := lingered(s); d != 0 {
		t.Fatalf("the request after a slow outlier lingered %v", d)
	}
	s.service.Store(int64(time.Hour))
	hiccup.Store(int64(time.Millisecond))
	classify()
	if got := time.Duration(s.service.Load()); got < time.Millisecond || got > time.Minute {
		t.Fatalf("service floor %v after a 1ms batch, want it to drop there from an hour at once", got)
	}
}

// TestSimultaneousRequestsShareOneBatch: on an idle multi-worker pool
// whose batches are slow, two requests arriving together ride one batch
// — the lone forming worker waits for the second instead of a second
// worker serving it alone at twice the cost.
func TestSimultaneousRequestsShareOneBatch(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s := newServerWith(t, f, Options{Workers: 3, MaxBatch: 2, MaxQueueLatency: time.Minute}, instant)
	defer s.Close()
	for round := 0; round < 20; round++ {
		// As if batches took four minutes: the former lingers up to the
		// one-minute cap, and in practice until the second request
		// fills the batch.
		s.service.Store(int64(4 * time.Minute))
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pred, err := s.Classify(context.Background(), test.Image(i))
				if err != nil {
					t.Errorf("round %d request %d: %v", round, i, err)
				} else if pred.BatchSize != 2 {
					t.Errorf("round %d request %d rode a batch of %d, want both in one", round, i, pred.BatchSize)
				}
			}(i)
		}
		wg.Wait()
	}
	if st := s.Stats(); st.Batches != 20 || st.Requests != 40 {
		t.Fatalf("%d requests in %d batches, want 40 in 20", st.Requests, st.Batches)
	}
}

// TestCloseDrainsQueue: Close answers everything already admitted,
// queued or in flight, before it returns.
func TestCloseDrainsQueue(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, g := newGatedServer(t, f, Options{Workers: 2, MaxBatch: 4})
	occupied := g.occupy(t, s, test.Image(0))
	const queued = 10
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Classify(ctx, test.Image(i)); err != nil {
				t.Errorf("queued request %d across Close: %v", i, err)
			}
		}(i)
	}
	awaitQueued(t, s, queued)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Everything admitted is still behind the gate when Close shuts
	// the queue.
	for !isClosed(s) {
		time.Sleep(100 * time.Microsecond)
	}
	g.open()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := s.Stats(); st.Requests != queued+2 {
		t.Fatalf("Close returned with %d of %d admitted requests served", st.Requests, queued+2)
	}
	occupied()
	wg.Wait()
}

// TestControlUnderLoadDropsNothingAndConverges: Refresh and RotateKey
// under concurrent load answer every request, and once either returns
// no replica serves an older version.
func TestControlUnderLoadDropsNothingAndConverges(t *testing.T) {
	f, test := newTrainedFramework(t, 4)
	s, err := New(context.Background(), f, Options{Workers: 3, MaxBatch: 4})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var (
		wg     sync.WaitGroup
		served atomic.Uint64
	)
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
				floor := s.Version()
				pred, err := s.Classify(context.Background(), test.Image(i%test.N))
				if err != nil {
					t.Errorf("Classify during control: %v", err)
					return
				}
				if pred.ModelVersion < floor {
					t.Errorf("replica %d answered with version %d after the pool converged on %d", pred.Worker, pred.ModelVersion, floor)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	for round := 0; round < 4; round++ {
		var want uint64
		if round%2 == 0 {
			if want, err = f.Publish(); err != nil {
				t.Fatalf("round %d Publish: %v", round, err)
			}
			if _, err := s.Refresh(context.Background()); err != nil {
				t.Fatalf("round %d Refresh: %v", round, err)
			}
		} else if want, err = s.RotateKey(context.Background()); err != nil {
			t.Fatalf("round %d RotateKey: %v", round, err)
		}
		if got := s.Version(); got != want {
			t.Fatalf("round %d: serving version %d, published %d", round, got, want)
		}
		// Enough requests to reach every replica, beside the clients'.
		for i := 0; i < 8*s.Workers(); i++ {
			pred, err := s.Classify(context.Background(), test.Image(i%test.N))
			if err != nil {
				t.Fatalf("round %d Classify after control: %v", round, err)
			}
			if pred.ModelVersion != want {
				t.Fatalf("round %d: worker %d answered with version %d after control returned %d",
					round, pred.Worker, pred.ModelVersion, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("nothing served during control")
	}
	if st := s.Stats(); st.Rejected != 0 || st.Expired != 0 {
		t.Fatalf("control dropped requests: %d rejected, %d expired", st.Rejected, st.Expired)
	}
}

// TestControlDoesNotHoldBatchHostage: while one replica is out of the
// pool for a control call, batches keep flowing through the others.
func TestControlDoesNotHoldBatchHostage(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	// Stand in for a control call that is busy with replica 0.
	held := s.pool.get(s.backends[0])
	for i := 0; i < 20; i++ {
		pred, err := s.Classify(context.Background(), test.Image(i%test.N))
		if err != nil {
			t.Fatalf("Classify %d beside the held replica: %v", i, err)
		}
		if pred.Worker != 1 {
			t.Fatalf("request %d served by replica %d, which is under control", i, pred.Worker)
		}
	}
	s.pool.put(held)
}
