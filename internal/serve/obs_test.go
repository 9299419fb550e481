package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"plinius/internal/obs"
)

// TestStatsSnapshotConsistent hammers a server with concurrent clients
// while a reader loops over Stats, asserting every snapshot is
// internally consistent: Requests never goes backwards, and a snapshot
// that reports served requests always carries the matching latency
// fields (positive percentiles and average, max bounding the tail) —
// the guarantee of deriving all of them from one histogram snapshot.
// Run under -race this doubles as the stats data-race check.
func TestStatsSnapshotConsistent(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var lastReq uint64
		for {
			st := s.Stats()
			if st.Requests < lastReq {
				t.Errorf("Requests went backwards: %d after %d", st.Requests, lastReq)
				return
			}
			lastReq = st.Requests
			if st.Requests > 0 {
				if st.P50Latency <= 0 || st.AvgLatency <= 0 {
					t.Errorf("snapshot with %d requests lost its latencies: P50=%v avg=%v",
						st.Requests, st.P50Latency, st.AvgLatency)
					return
				}
				if st.P50Latency > st.P95Latency || st.P95Latency > st.P99Latency || st.P99Latency > st.MaxLatency {
					t.Errorf("percentiles not monotonic: %v %v %v max %v",
						st.P50Latency, st.P95Latency, st.P99Latency, st.MaxLatency)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Classify(context.Background(), test.Image((c*perClient+i)%test.N)); err != nil {
					t.Errorf("Classify: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("Requests = %d, want %d", st.Requests, clients*perClient)
	}
}

// TestTraceLifecycleAllExitPaths drives a request down every serve exit
// path — success, bad image, queue overflow, EPC shed, expired context,
// closed server — and asserts the tracer's active count returns to
// zero: no exit path leaks an open trace.
func TestTraceLifecycleAllExitPaths(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: 1, QueueDepth: 2})

	// Queue overflow: with the only worker busy and the depth-2 queue
	// full, an arrival is rejected with ErrOverloaded.
	occupied := g.occupy(t, s, test.Image(0))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Classify(context.Background(), test.Image(i)); err != nil {
				t.Errorf("queued Classify: %v", err)
			}
		}(i)
	}
	awaitQueued(t, s, 2)
	if _, err := s.Classify(context.Background(), test.Image(0)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("arrival at a full queue err = %v, want ErrOverloaded", err)
	}
	g.open()
	occupied()
	wg.Wait()
	// Success.
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify: %v", err)
	}
	// Bad image.
	if _, err := s.Classify(context.Background(), []float32{1, 2, 3}); !errors.Is(err, ErrBadImage) {
		t.Fatalf("short image err = %v, want ErrBadImage", err)
	}
	// Expired context: a request whose deadline ends while it waits in
	// the queue behind a busy worker returns the context error.
	busy, g := newGatedServer(t, f, Options{Workers: 1, MaxBatch: 32})
	occupied = g.occupy(t, busy, test.Image(0))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	if _, err := busy.Classify(ctx, test.Image(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request err = %v, want DeadlineExceeded", err)
	}
	cancel()
	g.open()
	occupied()
	if err := busy.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := busy.Tracer().Active(); n != 0 {
		t.Fatalf("expired-path tracer still has %d active traces", n)
	}
	if st := busy.Stats(); st.Expired != 1 {
		t.Fatalf("expired request counted %d times", st.Expired)
	}
	// Closed server.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server err = %v, want ErrClosed", err)
	}

	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats.Rejected = %d, want the one arrival at the full queue", st.Rejected)
	}
	if n := s.Tracer().Active(); n != 0 {
		t.Fatalf("tracer still has %d active traces after all exit paths", n)
	}
	// Failures carry their error into the retained traces.
	var sawErr bool
	for _, tr := range s.SlowTraces() {
		if tr.Err != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatalf("no retained trace recorded an error")
	}
}

// TestEPCShedClosesTrace covers the pressure-shed exit path on an
// overcommitted host.
func TestEPCShedClosesTrace(t *testing.T) {
	f, test := newTrainedFrameworkOverhead(t, 2, 94<<20)
	s, err := New(context.Background(), f, Options{Workers: 1, MaxEPCPressure: 1e-6})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if _, err := s.Classify(context.Background(), test.Image(0)); !errors.Is(err, ErrEPCPressure) {
		t.Fatalf("overcommitted Classify err = %v, want ErrEPCPressure", err)
	}
	if n := s.Tracer().Active(); n != 0 {
		t.Fatalf("tracer still has %d active traces after EPC shed", n)
	}
}

// TestTraceSpansTileLatency serves requests and checks each retained
// trace's spans (queue, batch, then the replica's one-range pipeline —
// window, wait/0, restore/0, compute/0 — and deliver) sum to its
// end-to-end latency within 5% plus a small absolute slack for the
// instants between stamps.
func TestTraceSpansTileLatency(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	for i := 0; i < 32; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	traces := s.SlowTraces()
	if len(traces) == 0 {
		t.Fatalf("no traces retained")
	}
	for _, tr := range traces {
		if tr.Err != "" {
			continue
		}
		sum := tr.SpanSum()
		gap := tr.Total - sum
		if gap < 0 {
			gap = -gap
		}
		slack := tr.Total/20 + 200*time.Microsecond
		if gap > slack {
			t.Errorf("trace %d: spans %v sum %v vs total %v (gap %v > slack %v)",
				tr.ID, tr.Spans, sum, tr.Total, gap, slack)
		}
		stages := make(map[string]bool, len(tr.Spans))
		for _, sp := range tr.Spans {
			stages[sp.Stage] = true
		}
		for _, want := range []string{"queue", "batch", "window", "wait/0", "restore/0", "compute/0", "deliver"} {
			if !stages[want] {
				t.Errorf("trace %d missing %q span: %v", tr.ID, want, tr.Spans)
			}
		}
	}
}

// TestShardModeTracesAndMetrics serves through a streaming shard
// pipeline and checks (a) retained traces carry per-shard stage spans
// and (b) the server registry exposes nonzero shard-stage series.
func TestShardModeTracesAndMetrics(t *testing.T) {
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Shards: 3, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if s.Shards() < 2 {
		t.Fatalf("Shards = %d, test needs a sharded server", s.Shards())
	}
	for i := 0; i < 16; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i%test.N)); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	var sawShardSpan bool
	for _, tr := range s.SlowTraces() {
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Stage, "compute/") {
				sawShardSpan = true
			}
		}
	}
	if !sawShardSpan {
		t.Fatalf("no retained trace carries a per-shard compute span")
	}
	flat := obs.Flatten(s.Metrics())
	if flat[`shard_restores_total{shard=0}`] == 0 {
		t.Fatalf("shard_restores_total{shard=0} = 0; shard series missing: %v", flat)
	}
	if flat[`serve_requests_total`] != 16 {
		t.Fatalf("serve_requests_total = %v, want 16", flat["serve_requests_total"])
	}
}
