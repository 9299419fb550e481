package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

type classifyFunc = func(context.Context, []float32) ([]int, error)

// fakeBackend is a real backend whose batches go through classify.
type fakeBackend struct {
	core.Backend
	classify classifyFunc
}

func (b *fakeBackend) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	return b.classify(ctx, images)
}

// newServerWith builds a server, lets wrap replace what each backend
// classifies with, and only then starts the workers.
func newServerWith(t testing.TB, f *core.Framework, opts Options, wrap func(*Server, classifyFunc) classifyFunc) *Server {
	t.Helper()
	s, err := build(context.Background(), f, opts)
	if err != nil {
		t.Fatalf("build server: %v", err)
	}
	for i, b := range s.backends {
		fake := &fakeBackend{Backend: b, classify: wrap(s, b.ClassifyBatchCtx)}
		s.backends[i] = fake
		for _, sl := range s.slots {
			if sl.b == b {
				sl.b = fake
			}
		}
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

// sendTrain sends n requests, each in its own goroutine, and returns
// the size of the batch each rode, in sending order. Each request after
// the first goes out at least gap after the one before, and only once
// the queue is empty, so a worker that stalls is not handed a backlog:
// the train's requests arrive one by one, each close behind the last.
// Going out starts the request's goroutine, so a descheduled one can
// reach the queue after a later one. The gap is spun, yielding, rather
// than slept: a sleep under a millisecond lasts about one.
func sendTrain(t *testing.T, s *Server, test *mnist.Dataset, n int, gap time.Duration) []int {
	t.Helper()
	// A linger that never ended would hold every request until ctx.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sizes := make([]int, n)
	var wg sync.WaitGroup
	for i := range sizes {
		if i > 0 {
			for sent := time.Now(); time.Since(sent) < gap || len(s.reqCh) > 0; {
				runtime.Gosched()
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, err := s.Classify(ctx, test.Image(i%test.N))
			if err != nil {
				t.Errorf("request %d of %d: %v", i, n, err)
			}
			sizes[i] = pred.BatchSize
		}(i)
	}
	wg.Wait()
	return sizes
}

// TestLingerFollowsMeasuredServiceTime: after a slow batch a lone
// request on an idle server waits for company a quarter of the measured
// service time, never more than MaxQueueLatency; a batch with company
// stops one quiet gap after its last arrival, far short of that
// quarter; a lone request beside a batch being served waits past the
// quarter, up to MaxQueueLatency; a train of arrivals each closer than
// the gap keeps a linger going only up to MaxQueueLatency; and a quick
// backend never lingers.
func TestLingerFollowsMeasuredServiceTime(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, tc := range []struct {
		name     string
		service  time.Duration // slept in the first batch; zero stores quick instead
		cap      time.Duration
		busy     bool          // another batch is being served throughout
		train    int           // requests sent 20µs apart
		ride     int           // most requests the train's first may ride with
		min, max time.Duration // bounds on the train's linger
	}{
		// A lone request polls to its bound, so min is exact; max only
		// has to tell the bound from the next one up.
		{"slow backend lingers a quarter of its service time", 20 * time.Millisecond, time.Hour, false, 1, 1, 5 * time.Millisecond, 100 * time.Millisecond},
		{"the cap bounds the linger", 100 * time.Millisecond, 2 * time.Millisecond, false, 1, 1, 2 * time.Millisecond, 20 * time.Millisecond},
		// S/4 is 100ms: only a quiet gap ends the linger by 50ms.
		{"with company the linger ends one quiet gap after the last arrival", 400 * time.Millisecond, time.Hour, false, 2, 2, minLinger, 50 * time.Millisecond},
		// S/4 is 1ms, and the batch being served never returns.
		{"beside a served batch a lone request waits to the cap", 4 * time.Millisecond, 20 * time.Millisecond, true, 1, 1, 20 * time.Millisecond, 200 * time.Millisecond},
		// 1000 requests at least 20µs apart span 20ms, and S/4 is 25ms:
		// the 1ms cap, or a quiet gap a descheduled sender opens, ends
		// the first linger with at most about 50 of them aboard.
		{"a train of arrivals is cut at the cap", 100 * time.Millisecond, time.Millisecond, false, 1000, 100, minLinger, 10 * time.Millisecond},
		{"quick backend never lingers", 0, time.Hour, false, 1, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var slept atomic.Bool
			s := newServerWith(t, f, Options{Workers: 1, MaxBatch: 1024, MaxQueueLatency: tc.cap}, func(s *Server, _ classifyFunc) classifyFunc {
				return func(ctx context.Context, images []float32) ([]int, error) {
					if !slept.Swap(true) {
						time.Sleep(tc.service)
					}
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
			if tc.busy {
				s.serving.Add(1)
			}
			start := time.Now()
			sizes := sendTrain(t, s, test, tc.train, 20*time.Microsecond)
			elapsed := time.Since(start)
			if sizes[0] > tc.ride {
				t.Fatalf("the train's first request rode a batch of %d, want at most %d", sizes[0], tc.ride)
			}
			// Batches after the train's first are instant and drop the
			// service floor, so they do not linger.
			if d := lingered(s); d < tc.min || d > tc.max {
				t.Fatalf("the train lingered %v, want within [%v, %v]", d, tc.min, tc.max)
			}
			if limit := tc.max + time.Second; elapsed > limit {
				t.Fatalf("the train took %v, want under %v", elapsed, limit)
			}
		})
	}
}

// TestLingerCollectsRiders: requests that arrive while the forming
// worker lingers ride its batch — on one core too, where the poll must
// yield for the senders to run at all — and once the batch has company
// the linger ends when they stop coming, long before the service time
// and the cap would end it.
func TestLingerCollectsRiders(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// The senders' own 10s context would end a linger that ran
			// to this cap.
			const limit = 10 * time.Second
			s := newServerWith(t, f, Options{Workers: 1, MaxBatch: 8, MaxQueueLatency: limit}, instant)
			defer s.Close()
			const rounds = 20
			joined, before := 0, time.Duration(0)
			for round := 0; round < rounds; round++ {
				s.service.Store(int64(time.Hour))
				// 20µs apart and each once the last is taken: well
				// inside the quiet gap the last arrival restarted.
				// Any batch of the round may be the one that lingered,
				// since senders can reach the queue out of order.
				if sizes := sendTrain(t, s, test, 3, 20*time.Microsecond); max(sizes[0], sizes[1], sizes[2]) > 1 {
					joined++
				}
				// A lone request waits for its first rider however long
				// a busy host keeps the sender from running (a -race run
				// beside other packages' tests once took 1s), so each
				// round is held to the cap alone.
				d := lingered(s)
				if d-before >= limit {
					t.Fatalf("round %d lingered %v: it ran to the cap", round, d-before)
				}
				before = d
			}
			// A lone request on an idle server waits out the cap for its
			// first rider, so a descheduled sender still joins.
			if joined < rounds {
				t.Fatalf("riders joined a lingering request's batch in %d of %d rounds", joined, rounds)
			}
			if n := obs.Flatten(s.Metrics())["serve_batch_linger_riders_total"]; n < 1 {
				t.Fatalf("serve_batch_linger_riders_total = %v after %d rounds with company", n, joined)
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

// TestOutOfStepCallersFallBackInStep: two closed-loop callers whose
// requests reach an idle pool apart — one's batch already being served
// when the other's arrives — ride one batch again on their next
// requests. The lone request waits past its quarter of the service
// time, until the served batch returns, and the returning caller's next
// request joins it.
func TestOutOfStepCallersFallBackInStep(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// A batch of one waits at the gate until the test lets it
			// through; larger batches pass.
			entered, release := make(chan struct{}, 8), make(chan struct{})
			s := newServerWith(t, f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Minute}, func(s *Server, _ classifyFunc) classifyFunc {
				return func(ctx context.Context, images []float32) ([]int, error) {
					if len(images) == s.inputSize {
						entered <- struct{}{}
						<-release
					}
					return instant(s, nil)(ctx, images)
				}
			})
			defer s.Close()
			defer close(release) // before Close, which waits on a held batch
			classify := func(i int) Prediction {
				pred, err := s.Classify(context.Background(), test.Image(i))
				if err != nil {
					t.Errorf("Classify %d: %v", i, err)
				}
				return pred
			}
			for round := 0; round < 10; round++ {
				// S/4 is 20ms: long enough for the returning caller to
				// send again on a host busy with other tests.
				s.service.Store(int64(80 * time.Millisecond))
				var first, second, next Prediction
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { // the caller whose batch is served first
					defer wg.Done()
					first = classify(0)
					next = classify(1)
				}()
				<-entered
				go func() {
					defer wg.Done()
					second = classify(2)
				}()
				time.Sleep(60 * time.Millisecond)
				if len(entered) != 0 {
					t.Fatalf("round %d: a lone request beside a batch being served was dispatched alone", round)
				}
				release <- struct{}{}
				answered := make(chan struct{})
				go func() { wg.Wait(); close(answered) }()
				select {
				case <-answered:
				case <-entered:
					t.Fatalf("round %d: after the served batch returned, its caller's next request was dispatched apart from the waiting one", round)
				}
				if first.BatchSize != 1 || second.BatchSize != 2 || next.BatchSize != 2 {
					t.Fatalf("round %d: batch sizes %d, then %d and %d; want 1, then 2 and 2", round, first.BatchSize, second.BatchSize, next.BatchSize)
				}
			}
		})
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

// TestControlUnderLoadDropsNothingAndConverges: on every kind of
// backend, Refresh and RotateKey under concurrent load answer every
// request, and once either returns nothing serves an older version.
// Stats reports the backend's shape, and Close hands every host back
// exactly the EPC it had before the server.
func TestControlUnderLoadDropsNothingAndConverges(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		setup                      func(t *testing.T) (*core.Framework, *mnist.Dataset, Options)
		sharded, streaming, fleets bool
	}{
		{"replica pool", func(t *testing.T) (*core.Framework, *mnist.Dataset, Options) {
			f, test := newTrainedFramework(t, 4)
			return f, test, Options{Workers: 3, MaxBatch: 4}
		}, false, false, false},
		{"streaming shard group", func(t *testing.T) (*core.Framework, *mnist.Dataset, Options) {
			f, test := newStreamingFramework(t)
			return f, test, Options{Shards: ShardAuto, MaxBatch: 4, ShardOverheadBytes: 8 << 10}
		}, true, true, false},
		{"3-host fleet", func(t *testing.T) (*core.Framework, *mnist.Dataset, Options) {
			f, test := newTrainedFramework(t, 4)
			return f, test, Options{Fleet: newFleetHosts(f, 3, 32<<20), MaxBatch: 4}
		}, true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, test, opts := tc.setup(t)
			hosts := append([]*enclave.Host{f.Host}, opts.Fleet...)
			baseline := make([]int, len(hosts))
			for i, h := range hosts {
				baseline[i] = h.Resident()
			}
			s, err := New(context.Background(), f, opts)
			if err != nil {
				t.Fatalf("New server: %v", err)
			}
			defer s.Close()
			if st := s.Stats(); (st.Shards > 0) != tc.sharded || st.Streaming != tc.streaming || (st.FleetGroups > 0) != tc.fleets {
				t.Fatalf("Stats reports %d shards, streaming=%v, %d fleet groups; want sharded=%v streaming=%v fleet=%v",
					st.Shards, st.Streaming, st.FleetGroups, tc.sharded, tc.streaming, tc.fleets)
			}
			controlUnderLoad(t, f, s, test)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for i, h := range hosts {
				if got := h.Resident(); got != baseline[i] {
					t.Fatalf("host %d holds %d resident bytes after Close, %d before New", i, got, baseline[i])
				}
			}
		})
	}
}

// controlUnderLoad alternates Publish + Refresh and RotateKey while
// four clients classify, and checks no request fails and none is
// answered by a version older than the server had converged on.
func controlUnderLoad(t *testing.T, f *core.Framework, s *Server, test *mnist.Dataset) {
	stop := make(chan struct{})
	var (
		wg     sync.WaitGroup
		served atomic.Uint64
		err    error
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
					t.Errorf("worker %d answered with version %d after the server converged on %d", pred.Worker, pred.ModelVersion, floor)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	defer func() {
		close(stop)
		wg.Wait()
		if served.Load() == 0 {
			t.Error("nothing served during control")
		}
		if st := s.Stats(); st.Rejected != 0 || st.Expired != 0 {
			t.Errorf("control dropped requests: %d rejected, %d expired", st.Rejected, st.Expired)
		}
	}()
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
		// Enough requests to reach every worker, beside the clients'.
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
	held := s.pool.drain(s.backends[0], 1)
	for i := 0; i < 20; i++ {
		pred, err := s.Classify(context.Background(), test.Image(i%test.N))
		if err != nil {
			t.Fatalf("Classify %d beside the held replica: %v", i, err)
		}
		if pred.Worker == held[0].id {
			t.Fatalf("request %d served by replica %d, which is under control", i, pred.Worker)
		}
	}
	s.pool.release(held)
}
