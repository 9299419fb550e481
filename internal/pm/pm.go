// Package pm emulates byte-addressable persistent memory (Intel Optane DC
// PM in app-direct mode) for the Plinius reproduction.
//
// The device keeps two images of the region: the volatile view that loads
// and stores observe (CPU caches + memory), and the persisted image that
// survives a power failure. Stores dirty 64-byte cache lines in the
// volatile view; a persistent write-back (Flush) copies dirty lines to the
// persisted image, mirroring CLFLUSH/CLFLUSHOPT/CLWB + ADR semantics; a
// Fence orders write-backs. Crash discards everything that was never
// flushed, which is exactly the failure model the Romulus twin-copy
// algorithm must survive.
//
// Performance is accounted on a simclock.Clock using a latency Profile
// calibrated from the paper's Fig. 2 characterisation; see DESIGN.md.
package pm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"plinius/internal/obs"
	"plinius/internal/simclock"
)

// CacheLineSize is the unit of persistence, matching x86 cache lines.
const CacheLineSize = 64

// Process-wide PM traffic counters, aggregated across every Device in
// the process. Per-device deltas stay on Device.Stats (the experiment
// harness resets those); these totals feed the /metrics surface.
var (
	mStores       = obs.Default().Counter("pm_stores_total", "PM store operations.")
	mLoads        = obs.Default().Counter("pm_loads_total", "PM load operations.")
	mBytesStored  = obs.Default().Counter("pm_bytes_stored_total", "Bytes stored to PM.")
	mBytesLoaded  = obs.Default().Counter("pm_bytes_loaded_total", "Bytes loaded from PM.")
	mFlushes      = obs.Default().Counter("pm_flushes_total", "Persistent write-back calls.")
	mFlushedLines = obs.Default().Counter("pm_flushed_lines_total", "Cache lines written back to PM media.")
	mFences       = obs.Default().Counter("pm_fences_total", "Ordering fences issued.")
	mCrashes      = obs.Default().Counter("pm_crashes_total", "Simulated power failures.")
)

// FlushKind selects the persistent write-back instruction flavour.
type FlushKind int

// Persistent write-back flavours supported by Romulus and Plinius
// (§V: clwb+sfence, clflushopt+sfence, clflush+nop).
const (
	FlushClflush FlushKind = iota + 1
	FlushClflushOpt
	FlushCLWB
)

// String implements fmt.Stringer.
func (k FlushKind) String() string {
	switch k {
	case FlushClflush:
		return "clflush"
	case FlushClflushOpt:
		return "clflushopt"
	case FlushCLWB:
		return "clwb"
	default:
		return fmt.Sprintf("FlushKind(%d)", int(k))
	}
}

// Profile models device latencies. Durations are per cache line unless
// stated otherwise.
type Profile struct {
	// Store is the cost of a cached store.
	Store time.Duration
	// Load is the cost of reading a line from PM media.
	Load time.Duration
	// Clflush is the cost of a serialising CLFLUSH write-back.
	Clflush time.Duration
	// ClflushOpt is the cost of an overlapping CLFLUSHOPT write-back.
	ClflushOpt time.Duration
	// CLWB is the cost of a CLWB write-back (line stays cached).
	CLWB time.Duration
	// Fence is the cost of an SFENCE.
	Fence time.Duration
}

// OptaneProfile returns latencies calibrated for Intel Optane DC PM from
// the paper's Fig. 2 (PM within ~2-4x of DRAM bandwidth, flush-dominated
// writes).
func OptaneProfile() Profile {
	return Profile{
		Store:      4 * time.Nanosecond,
		Load:       9 * time.Nanosecond,
		Clflush:    90 * time.Nanosecond,
		ClflushOpt: 30 * time.Nanosecond,
		CLWB:       26 * time.Nanosecond,
		Fence:      30 * time.Nanosecond,
	}
}

// RamdiskProfile returns latencies for DRAM-backed emulated PM (the
// sgx-emlPM server in the paper emulates PM with a ramdisk).
func RamdiskProfile() Profile {
	return Profile{
		Store:      2 * time.Nanosecond,
		Load:       4 * time.Nanosecond,
		Clflush:    6 * time.Nanosecond,
		ClflushOpt: 2 * time.Nanosecond,
		CLWB:       2 * time.Nanosecond,
		Fence:      20 * time.Nanosecond,
	}
}

// flushCost returns the per-line cost of a write-back of the given kind.
func (p Profile) flushCost(kind FlushKind) time.Duration {
	switch kind {
	case FlushClflush:
		return p.Clflush
	case FlushCLWB:
		return p.CLWB
	default:
		return p.ClflushOpt
	}
}

// Stats counts device operations since creation or the last StatsReset.
type Stats struct {
	Stores       uint64
	Loads        uint64
	Flushes      uint64
	FlushedLines uint64
	Fences       uint64
	BytesStored  uint64
	BytesLoaded  uint64
	Crashes      uint64
}

// Errors returned by Device operations.
var (
	ErrOutOfRange = errors.New("pm: access out of range")
	ErrBadSize    = errors.New("pm: size must be a positive multiple of the cache line size")
)

// Device is an emulated PM module. All methods are safe for concurrent
// use; Plinius itself is single-threaded per the paper, but the SPS
// benchmark and tests exercise concurrency.
type Device struct {
	mu        sync.Mutex
	size      int
	volatile  []byte
	persisted []byte
	dirty     []uint64 // bitset, one bit per cache line
	dirtyN    int
	clock     *simclock.Clock
	prof      Profile
	stats     Stats
}

// rangeMask returns the bits of dirty-bitset word w that fall inside
// the inclusive line range [first, last].
func rangeMask(w, first, last int) uint64 {
	mask := ^uint64(0)
	if w == first>>6 {
		mask &= ^uint64(0) << uint(first&63)
	}
	if w == last>>6 {
		mask &= ^uint64(0) >> uint(63-(last&63))
	}
	return mask
}

// setDirtyRange marks lines [first, last] dirty a bitset word at a
// time, keeping dirtyN exact by popcount.
func (d *Device) setDirtyRange(first, last int) {
	for w := first >> 6; w <= last>>6; w++ {
		mask := rangeMask(w, first, last)
		d.dirtyN += bits.OnesCount64(mask &^ d.dirty[w])
		d.dirty[w] |= mask
	}
}

// clearDirtyRange marks lines [first, last] clean.
func (d *Device) clearDirtyRange(first, last int) {
	for w := first >> 6; w <= last>>6; w++ {
		mask := rangeMask(w, first, last)
		d.dirtyN -= bits.OnesCount64(mask & d.dirty[w])
		d.dirty[w] &^= mask
	}
}

// Option configures a Device.
type Option func(*Device)

// WithProfile sets the latency profile (default OptaneProfile).
func WithProfile(p Profile) Option {
	return func(d *Device) { d.prof = p }
}

// WithClock attaches a shared clock for cost accounting. Without one the
// device keeps its own clock, retrievable via Clock.
func WithClock(c *simclock.Clock) Option {
	return func(d *Device) { d.clock = c }
}

// New creates an in-memory emulated PM device of the given size in bytes.
// Size must be a positive multiple of CacheLineSize.
func New(size int, opts ...Option) (*Device, error) {
	if size <= 0 || size%CacheLineSize != 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSize, size)
	}
	lines := size / CacheLineSize
	d := &Device{
		size:      size,
		volatile:  make([]byte, size),
		persisted: make([]byte, size),
		dirty:     make([]uint64, (lines+63)/64),
		prof:      OptaneProfile(),
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.clock == nil {
		d.clock = simclock.New()
	}
	return d, nil
}

// Size returns the region size in bytes.
func (d *Device) Size() int { return d.size }

// Clock returns the clock charged by this device.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// Profile returns the active latency profile.
func (d *Device) Profile() Profile { return d.prof }

func (d *Device) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > d.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, d.size)
	}
	return nil
}

// lineRange returns the first and one-past-last cache line index covering
// [off, off+n).
func lineRange(off, n int) (first, last int) {
	if n == 0 {
		return off / CacheLineSize, off / CacheLineSize
	}
	return off / CacheLineSize, (off + n - 1) / CacheLineSize
}

// Store writes data at off into the volatile view and marks the covered
// cache lines dirty. The data is NOT persistent until flushed.
func (d *Device) Store(off int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(off, len(data)); err != nil {
		return err
	}
	copy(d.volatile[off:], data)
	if len(data) > 0 {
		d.noteStore(off, len(data))
	}
	return nil
}

// noteStore accounts an n-byte store at off (n > 0): dirty lines,
// counters and modeled time. Callers hold d.mu.
func (d *Device) noteStore(off, n int) {
	first, last := lineRange(off, n)
	d.setDirtyRange(first, last)
	d.stats.Stores++
	d.stats.BytesStored += uint64(n)
	mStores.Inc()
	mBytesStored.Add(float64(n))
	d.clock.Advance(time.Duration(last-first+1) * d.prof.Store)
}

// noteLoad accounts an n-byte load at off (n > 0). Callers hold d.mu.
func (d *Device) noteLoad(off, n int) {
	first, last := lineRange(off, n)
	d.stats.Loads++
	d.stats.BytesLoaded += uint64(n)
	mLoads.Inc()
	mBytesLoaded.Add(float64(n))
	d.clock.Advance(time.Duration(last-first+1) * d.prof.Load)
}

// Load reads len(buf) bytes at off from the volatile view.
func (d *Device) Load(off int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(off, len(buf)); err != nil {
		return err
	}
	copy(buf, d.volatile[off:])
	if len(buf) > 0 {
		d.noteLoad(off, len(buf))
	}
	return nil
}

// Copy moves n bytes from src to dst inside the volatile view. It is
// exactly a Load of [src, src+n) followed by a Store to [dst, dst+n) —
// same counters, stats, dirty lines and modeled time — but one memmove
// with no bounce buffer (the Romulus main<->back propagation).
func (d *Device) Copy(dst, src, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(src, n); err != nil {
		return err
	}
	if err := d.checkRange(dst, n); err != nil {
		return err
	}
	if n > 0 {
		copy(d.volatile[dst:dst+n], d.volatile[src:src+n])
		d.noteLoad(src, n)
		d.noteStore(dst, n)
	}
	return nil
}

// Flush issues persistent write-backs of the given kind for every cache
// line overlapping [off, off+n). Clean lines still pay the write-back
// cost (the instruction is issued regardless); with ADR the flushed data
// is durable once accepted by the memory controller, so the persisted
// image is updated immediately.
func (d *Device) Flush(off, n int, kind FlushKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first, last := lineRange(off, n)
	start := first * CacheLineSize
	end := (last + 1) * CacheLineSize
	copy(d.persisted[start:end], d.volatile[start:end])
	d.clearDirtyRange(first, last)
	lines := last - first + 1
	d.stats.Flushes++
	d.stats.FlushedLines += uint64(lines)
	mFlushes.Inc()
	mFlushedLines.Add(float64(lines))
	d.clock.Advance(time.Duration(lines) * d.prof.flushCost(kind))
	return nil
}

// Fence issues an ordering fence (SFENCE). In this model durability is
// granted at Flush (ADR), so Fence only contributes latency and ordering.
func (d *Device) Fence() {
	d.mu.Lock()
	d.stats.Fences++
	d.mu.Unlock()
	mFences.Inc()
	d.clock.Advance(d.prof.Fence)
}

// Crash simulates a power failure: every store that was never flushed is
// lost, and the volatile view is re-initialised from the persisted image,
// as it would be after reboot and DAX re-mapping. Only stores dirty a
// line and only a flush cleans it, so a clean line is already equal in
// both images: reverting the runs of dirty lines is the whole crash, at
// O(bitset + dirty bytes) instead of O(device).
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for w, word := range d.dirty {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> uint(lo)))
			start := (w<<6 + lo) * CacheLineSize
			end := start + run*CacheLineSize
			copy(d.volatile[start:end], d.persisted[start:end])
			word &^= (uint64(1)<<uint(run) - 1) << uint(lo)
		}
		d.dirty[w] = 0
	}
	d.dirtyN = 0
	d.stats.Crashes++
	mCrashes.Inc()
}

// DirtyLines returns the number of cache lines with unflushed stores.
func (d *Device) DirtyLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirtyN
}

// Stats returns a copy of the operation counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// StatsReset zeroes the operation counters.
func (d *Device) StatsReset() {
	d.mu.Lock()
	d.stats = Stats{}
	d.mu.Unlock()
}

// PersistedSnapshot returns a copy of the persisted image, for tests that
// verify crash consistency without triggering a crash.
func (d *Device) PersistedSnapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, d.size)
	copy(out, d.persisted)
	return out
}
