package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	s := series{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := s.quantile(tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := (series{}).quantile(0.5); got != 0 {
		t.Errorf("empty series quantile = %g, want 0", got)
	}
	if s[0] != 5 {
		t.Errorf("quantile sorted its receiver in place: %v", s)
	}
	if got := (series{1, 2, 3, 4}).median(); !near(got, 2.5) {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {200, 0.95}, {1000, 0.99}, {9000, 8990.0 / 9000},
	} {
		if got := supportedQuantile(tc.n); !near(got, tc.want) {
			t.Errorf("supportedQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if supports(199, 0.95) {
		t.Error("199 samples leave fewer than 10 beyond p95")
	}
	if !supports(200, 0.95) {
		t.Error("200 samples leave 10 beyond p95")
	}
	if supports(750, 0.99) {
		t.Error("750 samples leave 7.5 beyond p99")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, since the driver judges
// spread with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2.0, 7.0, 9.5},
		{[]float64{2, 4}, 1.5, 3.0, 4.5},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestUnionCoverage(t *testing.T) {
	ivs := [][2]int64{{0, 40}, {30, 60}, {80, 120}, {-10, 5}}
	if got := unionCoverage(0, 100, ivs); !near(got, 0.8) {
		t.Errorf("coverage = %g, want 0.8", got)
	}
	if got := unionCoverage(0, 100, nil); got != 0 {
		t.Errorf("no intervals cover %g, want 0", got)
	}
	if got := unionCoverage(5, 5, ivs); got != 0 {
		t.Errorf("empty window covers %g, want 0", got)
	}
}

func TestArrivalsDependOnSeedOnly(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 600, 6000)
	b := arrivals(rand.New(rand.NewSource(7)), 600, 6000)
	c := arrivals(rand.New(rand.NewSource(8)), 600, 6000)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
		differs = differs || a[i] != c[i]
	}
	if !differs {
		t.Error("different seeds gave the same schedule")
	}
	// 6000 Poisson arrivals at 600/s span 10 s give or take a few percent.
	if span := a[len(a)-1]; span < 9*time.Second || span > 11*time.Second {
		t.Errorf("6000 arrivals at 600/s span %v, want about 10s", span)
	}
}

func TestSlotValue(t *testing.T) {
	if got := slotValue(entry{value: 500, unit: "req/s"}); !near(got, 2) {
		t.Errorf("500 req/s fills a slot as %g ms, want 2", got)
	}
	if got := slotValue(entry{value: 3.5, unit: "ms"}); !near(got, 3.5) {
		t.Errorf("a time fills a slot as %g, want 3.5", got)
	}
	if got := slotValue(entry{value: 0, unit: "samples/s"}); got != 0 {
		t.Errorf("a zero rate fills a slot as %g, want 0", got)
	}
}

func TestExactCount(t *testing.T) {
	for name, want := range map[string]bool{
		"pm.fences_per_save":            true,
		"pm.modeled_ms_per_save":        false,
		"engine.seal_ops_per_save":      true,
		"engine.seal_gbps":              false,
		"enclave.page_swaps_per_save":   true,
		"darknet.gemm_blocked_per_iter": true,
		"darknet.allocs_per_iter":       false,
		"save_ms_p50":                   false,
	} {
		if got := exactCount(name); got != want {
			t.Errorf("exactCount(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestOpsScalesLinearly(t *testing.T) {
	if got := (params{seconds: 20}).ops(540); got != 540 {
		t.Errorf("20 s keeps the reference count, got %d", got)
	}
	if got := (params{seconds: 10}).ops(540); got != 270 {
		t.Errorf("10 s halves the count, got %d", got)
	}
	if got := (params{seconds: 1}).ops(10); got != 1 {
		t.Errorf("a count never drops below 1, got %d", got)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	id := none.begin("x", 0, 0)
	none.end(id)
	none.add("x", 0, 0, time.Now(), time.Now())
	if len(none.phaseCoverage()) != 0 {
		t.Error("a nil recorder has no phases")
	}

	rec := newRecorder()
	root := rec.begin("workload", 0, 0)
	phase := rec.begin("phase", root, 0)
	t0 := rec.epoch
	rec.add("op", phase, 1, t0.Add(10*time.Millisecond), t0.Add(60*time.Millisecond))
	rec.add("op", phase, 2, t0.Add(50*time.Millisecond), t0.Add(110*time.Millisecond))
	rec.spans[phase-1].Start = int64(10 * time.Millisecond)
	rec.spans[phase-1].End = int64(210 * time.Millisecond)
	if got := rec.phaseCoverage()["phase"]; !near(got, 0.5) {
		t.Errorf("coverage = %g, want 0.5", got)
	}
}
