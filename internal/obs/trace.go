package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceKeep is how many of the slowest finished traces a Tracer
// retains when no explicit capacity is given.
const DefaultTraceKeep = 16

// SpanRec is one named stage of a request's life, as a duration. Spans
// are accounting entries rather than open/close pairs: pipeline stages
// record the durations they already measure (queue wait, restore,
// compute, seal), so a request's spans tile its end-to-end latency.
type SpanRec struct {
	Stage string        `json:"stage"`
	Dur   time.Duration `json:"duration_ns"`
}

// Trace accumulates the spans of one request. It is created by
// Tracer.Start (or NewTrace for a free-standing scratch trace), carried
// through the pipeline in a context.Context, and closed exactly once by
// its owner with Finish. Concurrent Add calls are safe; Adds after
// Finish are dropped.
type Trace struct {
	tracer *Tracer
	id     uint64
	start  time.Time

	mu    sync.Mutex
	done  bool
	total time.Duration
	err   string
	spans []SpanRec
	// first backs spans until a request outgrows it, so a request on
	// the whole-model replica path (queue, batch, window, wait/0,
	// restore/0, compute/0, deliver) costs one allocation for its trace
	// and none for its spans.
	first [8]SpanRec
}

// NewTrace returns a free-standing trace not owned by any Tracer —
// used for batch-level accounting that is later folded into the
// per-request traces with AddSpans.
func NewTrace() *Trace {
	t := &Trace{start: time.Now()}
	t.spans = t.first[:0]
	return t
}

// Add records a span. Safe on a nil trace, so pipeline code can record
// unconditionally whether or not the request is traced.
func (t *Trace) Add(stage string, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, SpanRec{Stage: stage, Dur: d})
	}
	t.mu.Unlock()
}

// AddSpans appends a batch of spans (e.g. the shared shard-pipeline
// spans of the micro-batch this request rode in).
func (t *Trace) AddSpans(spans []SpanRec) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, spans...)
	}
	t.mu.Unlock()
}

// Fail records the error the request ended with.
func (t *Trace) Fail(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.err = err.Error()
	}
	t.mu.Unlock()
}

// Drain appends the spans recorded so far to dst and forgets them, so
// one scratch trace serves batch after batch: a worker hands it to the
// pipeline in a context, then drains it into a reused buffer.
func (t *Trace) Drain(dst []SpanRec) []SpanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst = append(dst, t.spans...)
	t.spans = t.spans[:0]
	return dst
}

// Finish closes the trace, stamps its end-to-end duration, and offers
// it to the owning Tracer's slowest-N retention. Exactly one Finish
// per trace; later calls are no-ops.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.total = time.Since(t.start)
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.finish(t)
	}
}

// TraceSnapshot is an immutable copy of a finished trace.
type TraceSnapshot struct {
	ID    uint64        `json:"id"`
	Start time.Time     `json:"start"`
	Total time.Duration `json:"total_ns"`
	Err   string        `json:"err,omitempty"`
	Spans []SpanRec     `json:"spans"`
}

// Tracer hands out request traces and retains the N slowest finished
// ones in bounded memory.
type Tracer struct {
	keep   int
	nextID atomic.Uint64
	active atomic.Int64

	mu      sync.Mutex
	slowest []*Trace // unordered pool of at most keep traces
}

// NewTracer returns a tracer retaining the keep slowest traces
// (DefaultTraceKeep when keep <= 0).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	return &Tracer{keep: keep}
}

// Start opens a new trace. The caller owns it and must Finish it on
// every exit path.
func (tr *Tracer) Start() *Trace {
	tr.active.Add(1)
	t := NewTrace()
	t.tracer, t.id = tr, tr.nextID.Add(1)
	return t
}

// Active returns the number of started-but-unfinished traces — zero
// whenever the server is idle, which the lifecycle tests assert to
// prove every exit path closes its trace.
func (tr *Tracer) Active() int64 { return tr.active.Load() }

// finish retires a trace into the slowest-N pool.
func (tr *Tracer) finish(t *Trace) {
	tr.active.Add(-1)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.slowest) < tr.keep {
		tr.slowest = append(tr.slowest, t)
		return
	}
	// Replace the fastest retained trace if this one is slower.
	min := 0
	for i, s := range tr.slowest {
		if s.total < tr.slowest[min].total {
			min = i
		}
	}
	if t.total > tr.slowest[min].total {
		tr.slowest[min] = t
	}
}

// Slowest returns snapshots of the retained traces, slowest first.
func (tr *Tracer) Slowest() []TraceSnapshot {
	tr.mu.Lock()
	traces := append([]*Trace(nil), tr.slowest...)
	tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(traces))
	for _, t := range traces {
		t.mu.Lock()
		out = append(out, TraceSnapshot{
			ID:    t.id,
			Start: t.start,
			Total: t.total,
			Err:   t.err,
			Spans: append([]SpanRec(nil), t.spans...),
		})
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// ContextWithTrace returns ctx carrying t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
