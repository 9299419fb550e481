package enclave

import (
	"sync"
)

// Host is the unit of EPC ownership: one physical machine whose
// processor reserves a single enclave page cache shared by every
// enclave resident on it. Real SGX has exactly this shape — the EPC is
// a per-host resource, not a per-enclave one — so co-located enclaves
// (a training enclave plus serving replicas, or several tenants)
// compete for the same 93.5 MB of usable pages, and an enclave whose
// private working set fits comfortably can still thrash once the
// host's aggregate working set crosses the limit.
//
// The paging model splits the usable EPC pro-rata by footprint, a
// proportional-share approximation of the SGX driver's global (roughly
// LRU) eviction policy: with the host working set W over the usable
// budget U, an enclave of footprint f effectively holds U*f/W resident
// pages — always fewer than f — and a cyclic parameter stream larger
// than its share misses on essentially every page, exactly like the
// single-enclave knee in Fig. 7. The fault condition is therefore
// host-global (W > U) while the fault volume stays proportional to
// each enclave's own touches, which is the pro-rata split.
//
// A Host is cheap: an enclave alone on its own host reproduces the
// single-enclave cost model bit for bit.
type Host struct {
	mu       sync.Mutex
	prof     Profile
	usable   int
	resident int
	peak     int
	enclaves int
	swaps    uint64
	down     bool
	kills    uint64
}

// HostStats counts host-level EPC activity.
type HostStats struct {
	// Enclaves is the number of live (unclosed) enclaves on the host.
	Enclaves int
	// ResidentBytes is the aggregate working set of all live enclaves.
	ResidentBytes int
	// PeakResidentBytes is the high-water mark of ResidentBytes.
	PeakResidentBytes int
	// PageSwaps is the total EPC page faults charged across all
	// enclaves on the host.
	PageSwaps uint64
}

// HostOption configures a Host.
type HostOption func(*Host)

// WithHostEPC overrides the host's usable-EPC budget (default
// UsableEPC, the paper's 93.5 MiB). Tests use small budgets to hit the
// knee cheaply; multi-socket or ice-lake-class hosts use larger ones.
func WithHostEPC(n int) HostOption {
	return func(h *Host) {
		if n > 0 {
			h.usable = n
		}
	}
}

// NewHost creates a host machine with the given SGX cost profile and
// an empty EPC.
func NewHost(prof Profile, opts ...HostOption) *Host {
	h := &Host{prof: prof, usable: UsableEPC}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// NewEnclave creates an enclave resident on this host. The enclave
// inherits the host's cost profile; its working set counts toward the
// host's shared EPC budget until Close returns it.
func (h *Host) NewEnclave(opts ...Option) *Enclave {
	e := newEnclave(h, opts...)
	h.mu.Lock()
	h.enclaves++
	h.mu.Unlock()
	return e
}

// UsableEPC returns the host's usable-EPC budget in bytes.
func (h *Host) UsableEPC() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.usable
}

// Resident returns the aggregate working set of all live enclaves.
func (h *Host) Resident() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.resident
}

// Headroom returns the usable EPC not yet claimed by resident
// enclaves, 0 when the host is at or over the knee. Serving uses it to
// size replica pools: only as many replicas as fit the remaining
// budget stay on the fast side of the paging cliff.
func (h *Host) Headroom() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.resident >= h.usable {
		return 0
	}
	return h.usable - h.resident
}

// OverEPC reports whether the host's aggregate working set exceeds the
// usable EPC — the shared knee past which every resident enclave pays
// paging on each touched page, whatever its private footprint.
func (h *Host) OverEPC() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.resident > h.usable
}

// Overcommit returns how far the aggregate working set exceeds the
// usable EPC, as a fraction of the budget: 0 while everything fits,
// 0.5 when the host holds 1.5x its usable EPC. This is the EPC
// pressure signal surfaced by the serving layer.
func (h *Host) Overcommit() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.resident <= h.usable || h.usable <= 0 {
		return 0
	}
	return float64(h.resident-h.usable) / float64(h.usable)
}

// Kill marks the host down, simulating a machine failure. Enclaves on
// the host stay allocated (their memory accounting is unchanged) but
// every subsequent boundary crossing — Ecall, Ocall, or EPC claim —
// fails fast with ErrHostDown without running its body, the way RPCs
// into a dead machine time out rather than execute. A crossing already
// in flight when Kill lands completes normally; the failure takes
// effect at the next boundary. Kill is idempotent.
func (h *Host) Kill() {
	h.mu.Lock()
	if !h.down {
		h.down = true
		h.kills++
	}
	h.mu.Unlock()
}

// Rejoin brings a killed host back. The host returns empty-handed:
// whatever enclaves died with it must be rebuilt by their owners (the
// fleet layer re-provisions from the PM mirror). Rejoin is idempotent.
func (h *Host) Rejoin() {
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
}

// Down reports whether the host is currently marked dead.
func (h *Host) Down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// Stats returns a copy of the host-level counters.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HostStats{
		Enclaves:          h.enclaves,
		ResidentBytes:     h.resident,
		PeakResidentBytes: h.peak,
		PageSwaps:         h.swaps,
	}
}

// grow adds n bytes to the host working set (enclave Reserve).
func (h *Host) grow(n int) {
	h.mu.Lock()
	h.resident += n
	if h.resident > h.peak {
		h.peak = h.resident
	}
	h.mu.Unlock()
}

// shrink returns n bytes to the host (enclave Free/Close).
func (h *Host) shrink(n int) {
	h.mu.Lock()
	h.resident -= n
	h.mu.Unlock()
}

// countSwaps records page faults charged to one resident enclave.
func (h *Host) countSwaps(n uint64) {
	h.mu.Lock()
	h.swaps += n
	h.mu.Unlock()
}

// dropEnclave removes a closed enclave and its footprint.
func (h *Host) dropEnclave(footprint int) {
	h.mu.Lock()
	h.enclaves--
	h.resident -= footprint
	h.mu.Unlock()
}
