package serve

import (
	"runtime"
	"testing"
	"time"

	"plinius/internal/obs"
)

// TestLatencyPercentiles: the fixed-bucket histogram reports each
// percentile as its bucket's upper bound, in constant memory.
func TestLatencyPercentiles(t *testing.T) {
	c := newStatsCollector(obs.NewRegistry())
	for i := 0; i < 90; i++ {
		c.record(Prediction{Latency: 3 * time.Microsecond})
	}
	for i := 0; i < 10; i++ {
		c.record(Prediction{Latency: 1000 * time.Microsecond})
	}
	st := c.snapshot()
	// 3 µs lands in the (2,4] µs bucket; 1000 µs lands in (512,1024] µs,
	// whose bound is tightened to the observed 1 ms maximum.
	if st.P50Latency != 4*time.Microsecond {
		t.Fatalf("P50 = %v, want 4µs", st.P50Latency)
	}
	if st.P95Latency != 1000*time.Microsecond {
		t.Fatalf("P95 = %v, want 1ms", st.P95Latency)
	}
	if st.P99Latency != 1000*time.Microsecond {
		t.Fatalf("P99 = %v, want 1ms", st.P99Latency)
	}
	if st.P50Latency > st.P95Latency || st.P95Latency > st.P99Latency || st.P99Latency > st.MaxLatency {
		t.Fatalf("percentiles not monotonic: %v %v %v max %v",
			st.P50Latency, st.P95Latency, st.P99Latency, st.MaxLatency)
	}
}

// TestLatencyPercentilesNearestRank: with 10 requests the P99 is the
// 10th smallest (ceil(0.99*10)), so a single tail outlier must show.
func TestLatencyPercentilesNearestRank(t *testing.T) {
	c := newStatsCollector(obs.NewRegistry())
	for i := 0; i < 9; i++ {
		c.record(Prediction{Latency: time.Millisecond})
	}
	c.record(Prediction{Latency: 100 * time.Millisecond})
	st := c.snapshot()
	if st.P99Latency != 100*time.Millisecond {
		t.Fatalf("P99 = %v, want the 100ms outlier", st.P99Latency)
	}
	if st.P95Latency != 100*time.Millisecond {
		t.Fatalf("P95 = %v, want the 100ms outlier (ceil(9.5) = 10th)", st.P95Latency)
	}
	if st.P50Latency != 1024*time.Microsecond {
		t.Fatalf("P50 = %v, want the 1.024ms bucket bound", st.P50Latency)
	}
}

// TestLatencyPercentilesEmpty: no requests, no percentiles.
func TestLatencyPercentilesEmpty(t *testing.T) {
	c := newStatsCollector(obs.NewRegistry())
	st := c.snapshot()
	if st.P50Latency != 0 || st.P95Latency != 0 || st.P99Latency != 0 {
		t.Fatalf("empty collector reported percentiles %v %v %v",
			st.P50Latency, st.P95Latency, st.P99Latency)
	}
}

// TestAutoWorkersFootprintZeroGuard: a framework whose model is gone
// (crashed) reports a zero replica footprint; autoWorkers must not
// divide by it and falls back to a single worker.
func TestAutoWorkersFootprintZeroGuard(t *testing.T) {
	f, _ := newTrainedFramework(t, 2)
	f.Crash()
	if fp := f.ReplicaFootprint(0); fp != 0 {
		t.Fatalf("ReplicaFootprint after crash = %d, want 0", fp)
	}
	if got := autoWorkers(f, f.ReplicaFootprint(0)); got != 1 {
		t.Fatalf("autoWorkers with zero footprint = %d, want 1", got)
	}
}

// TestAutoWorkersZeroHeadroomFloor: a host already at (or past) its
// usable EPC leaves no headroom; the pool still gets its one replica.
func TestAutoWorkersZeroHeadroomFloor(t *testing.T) {
	f, _ := newTrainedFrameworkOverhead(t, 2, 94<<20)
	if h := f.Host.Headroom(); h != 0 {
		t.Fatalf("Headroom = %d, test needs an exhausted host", h)
	}
	if got := autoWorkers(f, f.ReplicaFootprint(0)); got != 1 {
		t.Fatalf("autoWorkers with zero headroom = %d, want 1", got)
	}
}

// TestAutoWorkersGOMAXPROCSClamp: a tiny footprint would fit far more
// replicas than cores; the pool is clamped to GOMAXPROCS.
func TestAutoWorkersGOMAXPROCSClamp(t *testing.T) {
	f, _ := newTrainedFrameworkOverhead(t, 2, 1<<20)
	per := f.ReplicaFootprint(0)
	max := runtime.GOMAXPROCS(0)
	if f.Host.Headroom()/per <= max {
		t.Fatalf("headroom %d / footprint %d does not exceed GOMAXPROCS %d; test needs the clamp regime",
			f.Host.Headroom(), per, max)
	}
	if got := autoWorkers(f, f.ReplicaFootprint(0)); got != max {
		t.Fatalf("autoWorkers = %d, want GOMAXPROCS %d", got, max)
	}
}
