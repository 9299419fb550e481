// Package enclave simulates an Intel SGX enclave for the Plinius
// reproduction.
//
// No Go SGX SDK exists, so the enclave is modeled as (a) an isolation
// boundary — plaintext model parameters and keys live only in memory
// accounted to an Enclave, and everything that leaves goes through the
// encryption engine — and (b) a cost model with the three SGX effects the
// paper measures: ecall/ocall transition latency (~13,100 cycles), the
// enclave page cache (EPC) capacity of 128 MB with 93.5 MB usable, and
// kernel page-swapping overhead once the working set exceeds that limit
// (the knee in Fig. 7 and Table I).
//
// The cost model is layered Host → Enclave → Engine. A Host (host.go)
// is the unit of EPC ownership: real SGX reserves one EPC per machine,
// shared by every resident enclave, so the paging knee is a property of
// the host's aggregate working set, not of any single enclave. Enclaves
// created on one host (Host.NewEnclave) charge their Reserve
// footprint to the shared budget and fault on Touch whenever the host —
// not merely the enclave — is over the knee. The encryption engine
// (package engine) binds to one enclave and charges these costs on every
// seal/open of data crossing the boundary. An enclave alone on its own
// host (NewHost(prof).NewEnclave()) reproduces the paper's
// one-enclave-per-machine cost model exactly.
//
// The package also provides a remote-attestation handshake (attest.go)
// used to provision the data-encryption key, as in the paper's Fig. 5
// workflow.
package enclave

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"plinius/internal/obs"
	"plinius/internal/simclock"
)

// EPC geometry from the paper (§II): of the 128 MB reserved, 93.5 MB
// are usable.
const (
	UsableEPC   = 93*(1<<20) + 512<<10 // 93.5 MiB
	PageSize    = 4096
	DefaultHeap = 8 << 30 // 8 GB max heap per enclave (§VI experimental setup)
)

// Profile models the SGX-related costs of a host machine.
type Profile struct {
	// Name identifies the machine, e.g. "sgx-emlPM".
	Name string
	// CPUGHz converts cycle counts to durations.
	CPUGHz float64
	// TransitionCycles is the cost of one ecall or ocall boundary
	// crossing (enter + exit averaged), ~13,100 cycles per [39].
	TransitionCycles int
	// PageSwapCost is the kernel driver cost of evicting one EPC page
	// and loading its replacement (EWB + ELDU round trip).
	PageSwapCost time.Duration
	// EPCCopyPerLine is the extra cost of moving one 64 B cache line
	// INTO the enclave (memory-encryption-engine decrypt + integrity
	// check on every line entering the EPC; loads stall on it, which is
	// why the paper's restores are read-dominated on real SGX).
	// Outbound writes are posted and charged nothing here.
	EPCCopyPerLine time.Duration
	// HardwareSGX is false when SGX runs in simulation mode (the
	// emlSGX-PM server): transitions and paging then cost nothing.
	HardwareSGX bool
}

// SGXEmlPMProfile returns the sgx-emlPM server: real SGX (Xeon E3-1270 @
// 3.8 GHz), PM emulated by a ramdisk.
func SGXEmlPMProfile() Profile {
	return Profile{
		Name:             "sgx-emlPM",
		CPUGHz:           3.8,
		TransitionCycles: 13100,
		PageSwapCost:     12 * time.Microsecond,
		EPCCopyPerLine:   85 * time.Nanosecond,
		HardwareSGX:      true,
	}
}

// EmlSGXPMProfile returns the emlSGX-PM server: SGX in simulation mode
// (Xeon Gold 5215 @ 2.5 GHz), real Optane PM.
func EmlSGXPMProfile() Profile {
	return Profile{
		Name:             "emlSGX-PM",
		CPUGHz:           2.5,
		TransitionCycles: 13100,
		PageSwapCost:     12 * time.Microsecond,
		HardwareSGX:      false,
	}
}

// TransitionCost returns the modeled duration of one enclave boundary
// crossing.
func (p Profile) TransitionCost() time.Duration {
	if !p.HardwareSGX || p.CPUGHz <= 0 {
		return 0
	}
	return time.Duration(float64(p.TransitionCycles) / p.CPUGHz * float64(time.Nanosecond))
}

// Errors returned by Enclave operations.
var (
	ErrHeapExhausted = errors.New("enclave: heap limit exceeded")
	ErrBadAlloc      = errors.New("enclave: allocation size must be positive")
	ErrFreeTooMuch   = errors.New("enclave: free exceeds allocated footprint")
	ErrClosed        = errors.New("enclave: enclave is closed")
	// ErrHostDown is returned by boundary crossings (Ecall, Ocall) and
	// EPC claims on an enclave whose host has been killed. The trusted
	// body is NOT run: a dead machine executes nothing. Callers treat it
	// as a routing failure — mark the host down, evict, retry elsewhere.
	ErrHostDown = errors.New("enclave: host is down")
)

// Stats counts enclave activity.
type Stats struct {
	Ecalls    uint64
	Ocalls    uint64
	PageSwaps uint64
	// ContentionSwaps counts the subset of PageSwaps paid while this
	// enclave's own footprint was within the host's usable EPC — faults
	// caused purely by co-located enclaves pushing the host's aggregate
	// working set over the knee. Zero on a single-enclave host.
	ContentionSwaps uint64
	PeakBytes       int
}

// Enclave is a simulated SGX enclave instance, resident on one Host.
type Enclave struct {
	mu        sync.Mutex
	host      *Host
	prof      Profile
	clock     *simclock.Clock
	allocated int
	closed    bool
	name      string
	rng       *rand.Rand
	sealKey   [16]byte
	stats     Stats

	// Role-labeled counters in the process-wide obs registry, shared by
	// every enclave with the same name — bounded cardinality however
	// many replicas or shards a test spins up.
	mEcalls     *obs.Counter
	mOcalls     *obs.Counter
	mSwaps      *obs.Counter
	mContention *obs.Counter
}

// Option configures an Enclave.
type Option func(*Enclave)

// WithSeed seeds the enclave RNG (sgx_read_rand) deterministically for
// tests. Production callers omit it.
func WithSeed(seed int64) Option {
	return func(e *Enclave) { e.rng = rand.New(rand.NewSource(seed)) }
}

// WithName labels the enclave's metrics with a role ("train",
// "replica", "shard"). Names are roles, not instance ids, so series
// cardinality stays bounded however many enclaves share one.
func WithName(name string) Option {
	return func(e *Enclave) { e.name = name }
}

// newEnclave builds an enclave resident on host (which registers it).
func newEnclave(host *Host, opts ...Option) *Enclave {
	e := &Enclave{
		host:  host,
		prof:  host.prof,
		clock: simclock.New(),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Derive a per-enclave sealing key from the RNG, standing in for the
	// CPU's EGETKEY-derived seal key.
	e.rng.Read(e.sealKey[:])
	if e.name == "" {
		e.name = "anon"
	}
	role := obs.Label{Key: "enclave", Value: e.name}
	reg := obs.Default()
	e.mEcalls = reg.Counter("enclave_ecalls_total", "Ecall boundary crossings, by enclave role.", role)
	e.mOcalls = reg.Counter("enclave_ocalls_total", "Ocall boundary crossings, by enclave role.", role)
	e.mSwaps = reg.Counter("epc_page_swaps_total", "EPC page faults charged on Touch, by enclave role.", role)
	e.mContention = reg.Counter("epc_contention_swaps_total", "EPC faults paid while the enclave's own footprint fit the usable EPC — co-location contention, by enclave role.", role)
	return e
}

// Profile returns the machine profile.
func (e *Enclave) Profile() Profile { return e.prof }

// Host returns the host machine whose EPC this enclave shares.
func (e *Enclave) Host() *Host { return e.host }

// Clock returns the clock charged by this enclave.
func (e *Enclave) Clock() *simclock.Clock { return e.clock }

// Ecall crosses into the enclave, charges the transition cost, and runs
// fn (the trusted function body). On a killed host the crossing fails
// fast with ErrHostDown and fn is never run.
func (e *Enclave) Ecall(fn func() error) error {
	if e.host.Down() {
		return fmt.Errorf("%w: ecall refused", ErrHostDown)
	}
	e.mu.Lock()
	e.stats.Ecalls++
	e.mu.Unlock()
	e.mEcalls.Inc()
	e.clock.Advance(e.prof.TransitionCost())
	return fn()
}

// Ocall crosses out of the enclave, charges the transition cost, and runs
// fn (the untrusted helper body). On a killed host the crossing fails
// fast with ErrHostDown and fn is never run.
func (e *Enclave) Ocall(fn func() error) error {
	if e.host.Down() {
		return fmt.Errorf("%w: ocall refused", ErrHostDown)
	}
	e.mu.Lock()
	e.stats.Ocalls++
	e.mu.Unlock()
	e.mOcalls.Inc()
	e.clock.Advance(e.prof.TransitionCost())
	return fn()
}

// Reserve registers n bytes of enclave heap, for callers whose data
// lives in typed slices (e.g. model weights) but must still count
// toward the EPC working set. The bytes join the host's shared working
// set. Release them with Free.
func (e *Enclave) Reserve(n int) error {
	return e.claim(n)
}

// claim accounts n bytes to the enclave footprint and the host working
// set.
func (e *Enclave) claim(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: %d", ErrBadAlloc, n)
	}
	if e.host.Down() {
		return fmt.Errorf("%w: claim refused", ErrHostDown)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.allocated+n > DefaultHeap {
		err := fmt.Errorf("%w: %d + %d > %d", ErrHeapExhausted, e.allocated, n, DefaultHeap)
		e.mu.Unlock()
		return err
	}
	e.allocated += n
	if e.allocated > e.stats.PeakBytes {
		e.stats.PeakBytes = e.allocated
	}
	e.mu.Unlock()
	e.host.grow(n)
	return nil
}

// Free releases n bytes of enclave heap previously obtained with Reserve,
// returning them to the host's shared budget.
func (e *Enclave) Free(n int) error {
	e.mu.Lock()
	if n < 0 || n > e.allocated {
		err := fmt.Errorf("%w: free %d of %d", ErrFreeTooMuch, n, e.allocated)
		e.mu.Unlock()
		return err
	}
	e.allocated -= n
	e.mu.Unlock()
	e.host.shrink(n)
	return nil
}

// Close destroys the enclave (EREMOVE of all its pages): its entire
// remaining footprint returns to the host's shared EPC budget and the
// enclave stops accepting allocations. Close is how a serving replica
// gives its pages back so the host's paging model stops charging the
// survivors for its working set.
func (e *Enclave) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	footprint := e.allocated
	e.allocated = 0
	e.mu.Unlock()
	e.host.dropEnclave(footprint)
	return nil
}

// Footprint returns the current enclave memory footprint in bytes.
func (e *Enclave) Footprint() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.allocated
}

// Touch charges the EPC paging cost of accessing n bytes of enclave
// memory. While the host's aggregate working set fits the usable EPC
// this is free. Beyond it, every touched page is charged a fault: the
// usable EPC splits pro-rata by footprint across resident enclaves
// (each holds usable*f/W pages for footprint f and host working set
// W), so every enclave's share is strictly smaller than its working
// set, and the Plinius access pattern — model parameters plus
// en/decryption buffers streamed cyclically each iteration — misses on
// essentially every access: each page is evicted before it comes
// around again. On a single-enclave host this is exactly the sharp
// knee behind the paper's Fig. 7 latency cliff and Table Ia shift
// (encryption 66% -> 92% of save latency past the EPC limit); on a
// shared host the same knee arrives earlier, once the residents
// jointly overcommit the budget, even though each is under it alone.
func (e *Enclave) Touch(n int) {
	if n <= 0 || !e.prof.HardwareSGX {
		return
	}
	if !e.host.OverEPC() {
		return
	}
	e.mu.Lock()
	footprint := e.allocated
	e.mu.Unlock()
	faults := uint64((n + PageSize - 1) / PageSize)
	e.mu.Lock()
	e.stats.PageSwaps += faults
	contended := footprint <= e.host.UsableEPC()
	if contended {
		e.stats.ContentionSwaps += faults
	}
	e.mu.Unlock()
	e.mSwaps.AddUint(faults)
	if contended {
		e.mContention.AddUint(faults)
	}
	e.host.countSwaps(faults)
	e.clock.Advance(time.Duration(faults) * e.prof.PageSwapCost)
}

// CopyAcross charges the memory-encryption-engine cost of moving n bytes
// across the enclave boundary (e.g. memcpy of a sealed model between PM
// and enclave memory). Free without hardware SGX.
func (e *Enclave) CopyAcross(n int) {
	if n <= 0 || !e.prof.HardwareSGX || e.prof.EPCCopyPerLine <= 0 {
		return
	}
	lines := (n + 63) / 64
	e.clock.Advance(time.Duration(lines) * e.prof.EPCCopyPerLine)
}

// ReadRand fills b with random bytes from the enclave's RNG, standing in
// for sgx_read_rand.
func (e *Enclave) ReadRand(b []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rng.Read(b)
}

// Stats returns a copy of the activity counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
