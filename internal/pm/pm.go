// Package pm emulates byte-addressable persistent memory (Intel Optane DC
// PM in app-direct mode) for the Plinius reproduction.
//
// Loads and stores observe the volatile view of the region (CPU caches +
// memory). Stores dirty 64-byte cache lines; a persistent write-back
// (Flush) makes lines durable, mirroring CLFLUSH/CLFLUSHOPT/CLWB + ADR
// semantics; a Fence orders write-backs. Crash discards everything that
// was never flushed, which is exactly the failure model the Romulus
// twin-copy algorithm must survive. A clean line is durable as it
// stands; the durable bytes of a dirty line sit in a backup image, saved
// by the store that dirtied it. So a write-back moves no memory, as on
// real hardware, and StoreFlush / CopyFlush cost one memmove per byte.
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
	"plinius/internal/par"
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

// FlushCost returns the per-line cost of a write-back of the given kind.
func (p Profile) FlushCost(kind FlushKind) time.Duration {
	switch kind {
	case FlushClflush:
		return p.Clflush
	case FlushCLWB:
		return p.CLWB
	default:
		return p.ClflushOpt
	}
}

// Stats counts device operations since creation.
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
	mu       sync.Mutex
	size     int
	volatile []byte
	backup   [][]byte // durable bytes of the dirty lines, by backupChunk
	dirty    []uint64 // bitset, one bit per cache line
	dirtyN   int
	clock    *simclock.Clock
	prof     Profile
	stats    Stats

	// The CopyFlush in progress, under mu: its operands, and copyRange,
	// copyExtents bound once in New so that handing it to par.For
	// allocates nothing.
	copyDst, copySrc int
	copyExt          []Extent
	copyRange        func(from, to int)
}

// eachRun calls fn with the byte range of every run of set bits in word
// w of a line bitset.
func eachRun(w int, word uint64, fn func(start, end int)) {
	for word != 0 {
		lo := bits.TrailingZeros64(word)
		run := bits.TrailingZeros64(^(word >> uint(lo)))
		start := (w<<6 + lo) * CacheLineSize
		fn(start, start+run*CacheLineSize)
		word &^= (uint64(1)<<uint(run) - 1) << uint(lo)
	}
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

// backupChunk is the granule of the backup image. A chunk is allocated
// the first time a line inside it is dirtied, so a device written
// through StoreFlush and CopyFlush, as a Romulus commit is, holds no
// second image of the lines it never leaves dirty. A chunk is a whole
// number of bitset words, so every run eachRun reports lies in one.
const backupChunk = 64 << 10

// backupOf returns the backup bytes of the run [start, end), allocating
// its chunk on first use.
func (d *Device) backupOf(start, end int) []byte {
	c := start / backupChunk
	base := c * backupChunk
	if d.backup[c] == nil {
		d.backup[c] = make([]byte, min(backupChunk, d.size-base))
	}
	return d.backup[c][start-base : end-base]
}

// setDirtyRange marks lines [first, last] dirty a bitset word at a
// time, keeping dirtyN exact by popcount. It must run before the store
// that dirties them: each line that was clean is backed up first.
func (d *Device) setDirtyRange(first, last int) {
	for w := first >> 6; w <= last>>6; w++ {
		fresh := rangeMask(w, first, last) &^ d.dirty[w]
		eachRun(w, fresh, func(start, end int) { copy(d.backupOf(start, end), d.volatile[start:end]) })
		d.dirtyN += bits.OnesCount64(fresh)
		d.dirty[w] |= fresh
	}
}

// Option configures a Device.
type Option func(*Device)

// WithProfile sets the latency profile (default OptaneProfile).
func WithProfile(p Profile) Option {
	return func(d *Device) { d.prof = p }
}

// New creates an in-memory emulated PM device of the given size in bytes.
// Size must be a positive multiple of CacheLineSize.
func New(size int, opts ...Option) (*Device, error) {
	if size <= 0 || size%CacheLineSize != 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSize, size)
	}
	lines := size / CacheLineSize
	d := &Device{
		size:     size,
		volatile: make([]byte, size),
		backup:   make([][]byte, (size+backupChunk-1)/backupChunk),
		dirty:    make([]uint64, (lines+63)/64),
		prof:     OptaneProfile(),
		clock:    simclock.New(),
	}
	for _, opt := range opts {
		opt(d)
	}
	d.copyRange = d.copyExtents
	return d, nil
}

// Size returns the region size in bytes.
func (d *Device) Size() int { return d.size }

// Clock returns the clock charged by this device.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// Profile returns the active latency profile.
func (d *Device) Profile() Profile { return d.prof }

func (d *Device) checkRange(off, n int) error {
	if off < 0 || n < 0 || n > d.size-off {
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
	if err := d.checkRange(off, len(data)); err != nil || len(data) == 0 {
		return err
	}
	d.setDirtyRange(lineRange(off, len(data)))
	copy(d.volatile[off:], data)
	d.noteStore(off, len(data))
	return nil
}

// StoreFlush is a Store then a Flush of the same range in one step: same
// counters, dirty lines and modeled time, but one memmove, since lines
// that end clean need no backup.
func (d *Device) StoreFlush(off int, data []byte, kind FlushKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(off, len(data)); err != nil || len(data) == 0 {
		return err
	}
	copy(d.volatile[off:], data)
	d.noteStore(off, len(data))
	d.noteFlush(off, len(data), kind)
	return nil
}

// noteStore accounts an n-byte store at off (n > 0): counters and
// modeled time. Callers hold d.mu.
func (d *Device) noteStore(off, n int) {
	first, last := lineRange(off, n)
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

// noteFlush cleans the lines overlapping [off, off+n) (n > 0) and
// accounts the write-back. Callers hold d.mu.
func (d *Device) noteFlush(off, n int, kind FlushKind) {
	first, last := lineRange(off, n)
	for w := first >> 6; w <= last>>6; w++ {
		mask := rangeMask(w, first, last)
		d.dirtyN -= bits.OnesCount64(mask & d.dirty[w])
		d.dirty[w] &^= mask
	}
	lines := last - first + 1
	d.stats.Flushes++
	d.stats.FlushedLines += uint64(lines)
	mFlushes.Inc()
	mFlushedLines.Add(float64(lines))
	d.clock.Advance(time.Duration(lines) * d.prof.FlushCost(kind))
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

// Extent is the byte range [Off, Off+N) of a region.
type Extent struct{ Off, N int }

// CopyFlush copies each extent of the region at src over the same extent
// of the region at dst: exactly a Load, Store and Flush per extent in
// order (same counters, dirty lines and modeled time), but one memmove
// per byte. Any extent out of range rejects the whole call. If the
// extents ascend without overlap and the two spans are disjoint, the
// memmove runs on par.For in parallelCopyBytes ranges, under the device
// lock.
func (d *Device) CopyFlush(dst, src int, ext []Extent, kind FlushKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, end, ordered := 0, 0, true
	for i, e := range ext {
		if err := d.checkRange(src+e.Off, e.N); err != nil {
			return err
		}
		if err := d.checkRange(dst+e.Off, e.N); err != nil {
			return err
		}
		ordered = ordered && (i == 0 || e.Off >= end)
		total, end = total+e.N, e.Off+e.N
	}
	d.copyDst, d.copySrc, d.copyExt = dst, src, ext
	if total > 0 && ordered && max(dst-src, src-dst) >= end-ext[0].Off {
		par.For(total, parallelCopyBytes, d.copyRange)
	} else {
		d.copyExtents(0, total)
	}
	for _, e := range ext {
		if e.N > 0 {
			d.noteLoad(src+e.Off, e.N)
			d.noteStore(dst+e.Off, e.N)
			d.noteFlush(dst+e.Off, e.N, kind)
		}
	}
	return nil
}

// parallelCopyBytes is CopyFlush's range size: a smaller commit stays on
// the caller, where the hand-off would cost more than it saves.
const parallelCopyBytes = 256 << 10

// copyExtents copies bytes [from, to) of the concatenated extents of the
// CopyFlush in progress. Callers hold d.mu; par.For's workers run it on
// the caller's behalf.
func (d *Device) copyExtents(from, to int) {
	pos := 0
	for _, e := range d.copyExt {
		if pos >= to {
			return
		}
		if lo, hi := max(from-pos, 0), min(to-pos, e.N); lo < hi {
			copy(d.volatile[d.copyDst+e.Off+lo:d.copyDst+e.Off+hi], d.volatile[d.copySrc+e.Off+lo:])
		}
		pos += e.N
	}
}

// Flush issues persistent write-backs of the given kind for every cache
// line overlapping [off, off+n). Clean lines still pay the write-back
// cost (the instruction is issued regardless); with ADR the data is
// durable once accepted by the memory controller, so the lines turn
// clean at once and nothing is copied.
func (d *Device) Flush(off, n int, kind FlushKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(off, n); err != nil || n == 0 {
		return err
	}
	d.noteFlush(off, n, kind)
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
// lost, and the volatile view comes back as the durable image, as it
// would after reboot and DAX re-mapping. A clean line is already
// durable, so restoring the runs of dirty lines from their backups is
// the whole crash, at O(bitset + dirty bytes) instead of O(device).
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for w, word := range d.dirty {
		eachRun(w, word, func(start, end int) { copy(d.volatile[start:end], d.backupOf(start, end)) })
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
