package enclave

import (
	"errors"
	"testing"
)

// TestSharedEPCAccounting is the shared-knee table: N enclaves, each
// below the usable EPC on its own, pay paging exactly when their joint
// working set overcommits the host.
func TestSharedEPCAccounting(t *testing.T) {
	cases := []struct {
		name       string
		enclaves   int
		each       int // per-enclave footprint
		wantPaging bool
	}{
		{"one tenant under", 1, 50 << 20, false},
		{"one tenant over", 1, 100 << 20, true},
		{"two tenants jointly under", 2, 40 << 20, false},
		{"two tenants jointly over", 2, 50 << 20, true},
		{"three tenants jointly over", 3, 40 << 20, true},
		{"four small tenants under", 4, 20 << 20, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHost(SGXEmlPMProfile())
			var encls []*Enclave
			for i := 0; i < tc.enclaves; i++ {
				e := h.NewEnclave(WithSeed(int64(i + 1)))
				if err := e.Reserve(tc.each); err != nil {
					t.Fatalf("Reserve enclave %d: %v", i, err)
				}
				encls = append(encls, e)
			}
			if got := h.Resident(); got != tc.enclaves*tc.each {
				t.Fatalf("Resident = %d, want %d", got, tc.enclaves*tc.each)
			}
			encls[0].Touch(8 << 20)
			clk := encls[0].Clock()
			paged := clk.Modeled() > 0
			if paged != tc.wantPaging {
				t.Fatalf("paging = %v (modeled %v), want %v", paged, clk.Modeled(), tc.wantPaging)
			}
			st := encls[0].Stats()
			if tc.wantPaging && st.PageSwaps == 0 {
				t.Fatal("no page swaps recorded past the shared knee")
			}
			// Contention attribution: faults while the enclave's private
			// footprint fits the budget are co-location damage.
			underOwnLimit := tc.each <= h.UsableEPC()
			if tc.wantPaging && underOwnLimit && st.ContentionSwaps != st.PageSwaps {
				t.Fatalf("ContentionSwaps = %d, want %d (all faults from co-location)",
					st.ContentionSwaps, st.PageSwaps)
			}
			if tc.wantPaging && !underOwnLimit && st.ContentionSwaps != 0 {
				t.Fatalf("ContentionSwaps = %d on a privately-over enclave, want 0", st.ContentionSwaps)
			}
			if hs := h.Stats(); hs.PageSwaps != st.PageSwaps {
				t.Fatalf("host PageSwaps = %d, enclave charged %d", hs.PageSwaps, st.PageSwaps)
			}
		})
	}
}

// TestCloseReturnsFootprintToHost verifies that closing an enclave
// gives its pages back: the survivors drop below the knee again.
func TestCloseReturnsFootprintToHost(t *testing.T) {
	h := NewHost(SGXEmlPMProfile())
	a := h.NewEnclave(WithSeed(1))
	b := h.NewEnclave(WithSeed(2))
	if err := a.Reserve(50 << 20); err != nil {
		t.Fatalf("Reserve a: %v", err)
	}
	if err := b.Reserve(50 << 20); err != nil {
		t.Fatalf("Reserve b: %v", err)
	}
	if !h.OverEPC() {
		t.Fatal("host not over EPC at 100 MB")
	}
	a.Touch(4 << 20)
	if a.Stats().PageSwaps == 0 {
		t.Fatal("no paging while jointly over")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := h.Resident(); got != 50<<20 {
		t.Fatalf("Resident after Close = %d, want %d", got, 50<<20)
	}
	if got := h.Enclaves(); got != 1 {
		t.Fatalf("Enclaves after Close = %d, want 1", got)
	}
	before := a.Stats().PageSwaps
	a.Touch(4 << 20)
	if got := a.Stats().PageSwaps; got != before {
		t.Fatalf("paging continued after co-tenant closed: %d -> %d", before, got)
	}
	// A closed enclave is inert.
	if err := b.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
	if err := b.Reserve(1 << 20); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve on closed = %v, want ErrClosed", err)
	}
	if _, err := b.Alloc(1 << 20); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc on closed = %v, want ErrClosed", err)
	}
}

// TestHostHeadroomAndOvercommit pins the replica-sizing signals.
func TestHostHeadroomAndOvercommit(t *testing.T) {
	h := NewHost(SGXEmlPMProfile(), WithHostEPC(100<<20))
	if got := h.UsableEPC(); got != 100<<20 {
		t.Fatalf("UsableEPC = %d, want %d", got, 100<<20)
	}
	e := h.NewEnclave(WithSeed(1))
	if err := e.Reserve(60 << 20); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := h.Headroom(); got != 40<<20 {
		t.Fatalf("Headroom = %d, want %d", got, 40<<20)
	}
	if got := h.Overcommit(); got != 0 {
		t.Fatalf("Overcommit under budget = %v, want 0", got)
	}
	if err := e.Reserve(90 << 20); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := h.Headroom(); got != 0 {
		t.Fatalf("Headroom over budget = %d, want 0", got)
	}
	if got := h.Overcommit(); got != 0.5 {
		t.Fatalf("Overcommit = %v, want 0.5", got)
	}
	if hs := h.Stats(); hs.PeakResidentBytes != 150<<20 {
		t.Fatalf("PeakResidentBytes = %d, want %d", hs.PeakResidentBytes, 150<<20)
	}
}

// TestPrivateHostShimBitIdentical: an enclave alone on a private host
// must reproduce the single-enclave knee exactly (Fig. 7 depends on it).
func TestPrivateHostShimBitIdentical(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	if e.Host() == nil {
		t.Fatal("private-host enclave has no host")
	}
	if err := e.Reserve(UsableEPC); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	e.Touch(1 << 20)
	if clk.Modeled() != 0 {
		t.Fatal("paging charged exactly at the usable EPC")
	}
	if err := e.Reserve(PageSize); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	e.Touch(1 << 20)
	if clk.Modeled() == 0 {
		t.Fatal("no paging one page past the usable EPC")
	}
	if st := e.Stats(); st.ContentionSwaps != 0 {
		t.Fatalf("ContentionSwaps = %d on a private host, want 0", st.ContentionSwaps)
	}
}
