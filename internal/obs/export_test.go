package obs

import (
	"context"
	"math"
	"time"
)

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ID returns the trace's id (zero for free-standing traces).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRec(nil), t.spans...)
}

// SpanSum returns the sum of the snapshot's span durations — for a
// well-instrumented pipeline it lands within a few percent of Total.
func (s TraceSnapshot) SpanSum() time.Duration {
	var sum time.Duration
	for _, sp := range s.Spans {
		sum += sp.Dur
	}
	return sum
}

// SpanInto records d against stage on the trace carried by ctx, if any.
func SpanInto(ctx context.Context, stage string, d time.Duration) {
	TraceFrom(ctx).Add(stage, d)
}
