package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestTracerRetainsSlowest: retention keeps the N slowest finished
// traces, sorted slowest-first, with active bookkeeping balanced.
func TestTracerRetainsSlowest(t *testing.T) {
	tr := NewTracer(3)
	durations := []time.Duration{5, 50, 20, 90, 1, 70}
	for _, d := range durations {
		tc := tr.Start()
		tc.Add("work", d*time.Millisecond)
		// Backdate the start so total is deterministic.
		tc.start = time.Now().Add(-d * time.Millisecond)
		tc.Finish()
	}
	if got := tr.Active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
	slow := tr.Slowest()
	if len(slow) != 3 {
		t.Fatalf("retained %d traces, want 3", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Total > slow[i-1].Total {
			t.Fatalf("slowest not sorted: %v then %v", slow[i-1].Total, slow[i].Total)
		}
	}
	// The three slowest were 90, 70 and 50 ms.
	if slow[0].Total < 90*time.Millisecond || slow[2].Total < 50*time.Millisecond {
		t.Fatalf("retained wrong traces: %v %v %v", slow[0].Total, slow[1].Total, slow[2].Total)
	}
}

// TestTraceLifecycle: double-Finish is a no-op, post-Finish spans are
// dropped, Fail is recorded, nil traces are safe everywhere.
func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Start()
	tc.Add("queue", 2*time.Millisecond)
	tc.Fail(errors.New("boom"))
	tc.Finish()
	tc.Finish()
	tc.Add("late", time.Second)
	if got := tr.Active(); got != 0 {
		t.Fatalf("active after double finish = %d, want 0", got)
	}
	slow := tr.Slowest()
	if len(slow) != 1 || slow[0].Err != "boom" {
		t.Fatalf("slowest = %+v, want one errored trace", slow)
	}
	for _, sp := range slow[0].Spans {
		if sp.Stage == "late" {
			t.Fatal("span recorded after Finish")
		}
	}
	var nilTrace *Trace
	nilTrace.Add("x", time.Second)
	nilTrace.AddSpans([]SpanRec{{Stage: "y"}})
	nilTrace.Fail(errors.New("z"))
	nilTrace.Finish()
	if nilTrace.Spans() != nil || nilTrace.ID() != 0 {
		t.Fatal("nil trace misbehaved")
	}
}

// TestTraceContext: context plumbing carries the trace; SpanInto on a
// traceless context is a no-op.
func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("background context carried a trace")
	}
	SpanInto(context.Background(), "nothing", time.Second) // must not panic
	tc := NewTrace()
	ctx := ContextWithTrace(context.Background(), tc)
	if TraceFrom(ctx) != tc {
		t.Fatal("trace not carried")
	}
	SpanInto(ctx, "compute", 3*time.Millisecond)
	spans := tc.Spans()
	if len(spans) != 1 || spans[0].Stage != "compute" || spans[0].Dur != 3*time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
	// Drain hands the spans over and leaves the trace empty for the next
	// batch, appending to whatever the caller's buffer already holds.
	drained := tc.Drain([]SpanRec{{Stage: "kept"}})
	if len(drained) != 2 || drained[0].Stage != "kept" || drained[1].Stage != "compute" || len(tc.Spans()) != 0 {
		t.Fatalf("Drain = %+v, left %+v", drained, tc.Spans())
	}
	SpanInto(ctx, "next", time.Millisecond)
	if spans := tc.Spans(); len(spans) != 1 || spans[0].Stage != "next" || drained[1].Stage != "compute" {
		t.Fatalf("after Drain: trace %+v, drained %+v", spans, drained)
	}
	snap := TraceSnapshot{Spans: []SpanRec{{Dur: time.Second}, {Dur: 2 * time.Second}}}
	if snap.SpanSum() != 3*time.Second {
		t.Fatalf("SpanSum = %v", snap.SpanSum())
	}
}
