package enclave

import (
	"errors"
	"testing"
	"time"
)

func TestCopyAcrossChargesPerLine(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	e.CopyAcross(256) // 4 cache lines
	want := 4 * e.Profile().EPCCopyPerLine
	if got := clk.Modeled(); got != want {
		t.Fatalf("CopyAcross(256) charged %v, want %v", got, want)
	}
}

func TestCopyAcrossRoundsUpPartialLines(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	e.CopyAcross(65) // 2 lines
	want := 2 * e.Profile().EPCCopyPerLine
	if got := clk.Modeled(); got != want {
		t.Fatalf("CopyAcross(65) charged %v, want %v", got, want)
	}
}

func TestCopyAcrossFreeWithoutHardwareSGX(t *testing.T) {
	e := NewHost(EmlSGXPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	e.CopyAcross(1 << 20)
	if got := clk.Modeled(); got != 0 {
		t.Fatalf("simulation-mode CopyAcross charged %v", got)
	}
}

func TestCopyAcrossIgnoresNonPositive(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	e.CopyAcross(0)
	e.CopyAcross(-5)
	if got := clk.Modeled(); got != 0 {
		t.Fatalf("degenerate CopyAcross charged %v", got)
	}
}

func TestTouchKneeAtEPCLimit(t *testing.T) {
	// The paging model is a sharp knee (Fig. 7): a cyclically streamed
	// working set misses on every page once it exceeds the usable EPC,
	// so the cost jumps from zero to pages*PageSwapCost at the limit
	// and then scales with the bytes touched, not with the excess.
	costAt := func(footprint, touch int) time.Duration {
		e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
		clk := e.Clock()
		if err := e.Reserve(footprint); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
		e.Touch(touch)
		return clk.Modeled()
	}
	if got := costAt(UsableEPC, 32<<20); got != 0 {
		t.Fatalf("at the limit charged %v, want 0", got)
	}
	just := costAt(UsableEPC+(5<<20), 32<<20)
	far := costAt(UsableEPC+(100<<20), 32<<20)
	wantFaults := time.Duration((32<<20)/PageSize) * SGXEmlPMProfile().PageSwapCost
	if just != wantFaults || far != wantFaults {
		t.Fatalf("past-limit cost = %v / %v, want all-miss %v", just, far, wantFaults)
	}
	if big := costAt(UsableEPC+(5<<20), 64<<20); big <= just {
		t.Fatalf("paging cost not monotone in bytes touched: %v <= %v", big, just)
	}
}

func TestReserveRespectsHeapLimit(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	if err := e.Reserve(DefaultHeap + 1); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("over-limit Reserve = %v, want ErrHeapExhausted", err)
	}
	if err := e.Reserve(0); err == nil {
		t.Fatal("zero Reserve succeeded")
	}
	if err := e.Reserve(512 << 10); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := e.Footprint(); got != 512<<10 {
		t.Fatalf("Footprint = %d", got)
	}
}
