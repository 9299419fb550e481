// Package romulus implements SGX-Romulus, the Plinius port of the
// Romulus persistent-memory library (Correia, Felber, Ramalhete —
// SPAA'18) used for durable transactions on emulated PM.
//
// Romulus keeps twin copies of the user data in PM: the main region,
// mutated in place by transactions, and the back region, a snapshot of
// the last consistent state. A volatile redo log records the (offset,
// length) ranges a transaction modifies. Commit uses at most four
// persistence fences regardless of transaction size:
//
//	begin : state=MUTATING, pwb, fence            (1)
//	mutate: stores to main, pwb per store          — store interposition
//	commit: fence                                  (2)
//	        state=COPYING, pwb, fence              (3)
//	        copy logged ranges main→back, pwb each
//	        fence                                  (4)
//	        state=IDLE, pwb                        — ordered by next begin
//
// Recovery inspects the persistent state flag: MUTATING means main may
// be torn, so back (consistent) is restored over main; COPYING means
// main is consistent, so it is re-copied over back; IDLE needs nothing.
//
// The environment model (env.go) charges the extra costs of running the
// library natively, inside an SGX enclave (slower fences/write-backs),
// or unmodified inside a SCONE container (volatile-log memory pressure),
// reproducing the paper's Fig. 6 comparison.
package romulus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"plinius/internal/pm"
)

// Persistent layout constants.
const (
	headerSize = pm.CacheLineSize // magic + state flag
	magic      = 0x504C4E53524D4C // "PLNSRML"

	// Reserved prefix of the main region: the allocator bump offset and
	// the root pointer table live inside main so the twin-copy protocol
	// protects them like any other persistent data.
	usedOffset    = 0
	rootOffset    = 8
	NumRoots      = 8
	reservedBytes = 2 * pm.CacheLineSize // 8B used + 8x8B roots, padded
)

// Transaction states persisted in the header.
const (
	stateIdle uint64 = iota
	stateMutating
	stateCopying
)

// Errors returned by Romulus operations.
var (
	ErrNoTransaction    = errors.New("romulus: operation requires an open transaction")
	ErrNestedTx         = errors.New("romulus: transaction already open")
	ErrOutOfSpace       = errors.New("romulus: persistent heap exhausted")
	ErrBadRoot          = errors.New("romulus: root index out of range")
	ErrRegionTooSmall   = errors.New("romulus: device too small for twin regions")
	ErrBadOffset        = errors.New("romulus: offset outside user heap")
	ErrCorruptHeader    = errors.New("romulus: persistent header is corrupt")
	errCrashPointHit    = errors.New("romulus: injected crash")
	ErrCrashInjected    = errCrashPointHit // exported alias for tests of callers
	ErrAllocNonPositive = errors.New("romulus: allocation size must be positive")
)

// Romulus manages twin-copy durable transactions on one PM device. It is
// single-goroutine per the paper's single-threaded training loop; the
// underlying device is still race-safe.
type Romulus struct {
	dev        *pm.Device
	env        Env
	flushKind  pm.FlushKind
	regionSize int // size of each of main/back
	mainStart  int
	backStart  int
	log        []pm.Extent // main-region-relative ranges stored this tx
	inTx       bool
	used       int // cached allocator offset (authoritative copy in PM)

	// crashAt injects a device crash before the i-th commit step
	// (1-based); 0 disables. Used by crash-consistency tests.
	crashAt   int
	crashStep int
}

// Option configures a Romulus instance.
type Option func(*Romulus)

// WithEnv sets the execution environment cost model (default NativeEnv).
func WithEnv(e Env) Option {
	return func(r *Romulus) { r.env = e }
}

// WithFlushKind selects the persistent write-back flavour (default
// clflushopt, the paper's choice).
func WithFlushKind(k pm.FlushKind) Option {
	return func(r *Romulus) { r.flushKind = k }
}

// Open maps a Romulus heap onto the device, initialising it on first use
// and running recovery otherwise (paper Algorithm 1).
func Open(dev *pm.Device, opts ...Option) (*Romulus, error) {
	r := &Romulus{
		dev:       dev,
		env:       NativeEnv(),
		flushKind: pm.FlushClflushOpt,
	}
	for _, opt := range opts {
		opt(r)
	}
	usable := dev.Size() - headerSize
	r.regionSize = usable / 2 / pm.CacheLineSize * pm.CacheLineSize
	if r.regionSize <= reservedBytes {
		return nil, fmt.Errorf("%w: device %d bytes", ErrRegionTooSmall, dev.Size())
	}
	r.mainStart = headerSize
	r.backStart = headerSize + r.regionSize

	var hdr [16]byte
	if err := dev.Load(0, hdr[:]); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != magic {
		if err := r.format(); err != nil {
			return nil, fmt.Errorf("format: %w", err)
		}
	} else if err := r.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := r.loadUsed(); err != nil {
		return nil, err
	}
	return r, nil
}

// format initialises an empty heap: both regions consistent and empty.
func (r *Romulus) format() error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(reservedBytes))
	// used = reservedBytes in both main and back; roots zero already.
	for _, region := range [2]int{r.mainStart, r.backStart} {
		if err := r.dev.Store(region+usedOffset, buf[:]); err != nil {
			return err
		}
		if err := r.dev.Flush(region, reservedBytes, r.flushKind); err != nil {
			return err
		}
	}
	if err := r.writeState(stateIdle); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], magic)
	if err := r.dev.StoreFlush(0, hdr[:], r.flushKind); err != nil {
		return err
	}
	r.fence()
	return nil
}

// readUsed reads and validates the allocator cursor of the region
// (main or back) starting at regionStart.
func (r *Romulus) readUsed(regionStart int) (int, error) {
	var buf [8]byte
	if err := r.dev.Load(regionStart+usedOffset, buf[:]); err != nil {
		return 0, err
	}
	used := binary.LittleEndian.Uint64(buf[:])
	if used < reservedBytes || used > uint64(r.regionSize) {
		return 0, fmt.Errorf("%w: used=%d", ErrCorruptHeader, used)
	}
	return int(used), nil
}

func (r *Romulus) loadUsed() error {
	used, err := r.readUsed(r.mainStart)
	if err != nil {
		return err
	}
	r.used = used
	return nil
}

// propagate copies the extents of the region at src over the region at
// dst and writes them back, in one device CopyFlush accounted as the
// load + store + flush of each extent. No crash point falls between a
// store and its write-back, so the lines end clean and the device moves
// each byte once, across cores for a large log.
func (r *Romulus) propagate(dst, src int, ext []pm.Extent) error {
	if err := r.dev.CopyFlush(dst, src, ext, r.flushKind); err != nil {
		return err
	}
	for _, e := range ext {
		r.chargeFlushExtra(e.N)
	}
	return nil
}

// state helpers -------------------------------------------------------

func (r *Romulus) writeState(s uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s)
	if err := r.dev.StoreFlush(8, buf[:], r.flushKind); err != nil {
		return err
	}
	r.chargeFlushExtra(8)
	return nil
}

func (r *Romulus) readState() (uint64, error) {
	var buf [8]byte
	if err := r.dev.Load(8, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// cost-model wrappers --------------------------------------------------

func (r *Romulus) fence() {
	r.dev.Fence()
	r.chargeFenceExtra()
}

func (r *Romulus) chargeFlushExtra(n int) {
	if r.env.FlushMult <= 1 {
		return
	}
	lines := (n + pm.CacheLineSize - 1) / pm.CacheLineSize
	per := r.dev.Profile().FlushCost(r.flushKind)
	r.dev.Clock().Advance(time.Duration(float64(lines) * float64(per) * (r.env.FlushMult - 1)))
}

func (r *Romulus) chargeFenceExtra() {
	if r.env.FenceMult <= 1 {
		return
	}
	base := r.dev.Profile().Fence
	r.dev.Clock().Advance(time.Duration(float64(base) * (r.env.FenceMult - 1)))
}

// crash injection -------------------------------------------------------

// SetCrashPoint arms a crash before the n-th commit step (1-based across
// Begin/Store/Commit sub-steps). Used by crash-consistency tests; a
// crashed Romulus must be re-Opened on the same device.
func (r *Romulus) SetCrashPoint(n int) {
	r.crashAt = n
	r.crashStep = 0
}

func (r *Romulus) maybeCrash() error {
	if r.crashAt == 0 {
		return nil
	}
	r.crashStep++
	if r.crashStep == r.crashAt {
		r.dev.Crash()
		r.inTx = false
		r.log = nil
		return errCrashPointHit
	}
	return nil
}

// transactions ----------------------------------------------------------

// Begin opens a durable transaction.
func (r *Romulus) Begin() error {
	if r.inTx {
		return ErrNestedTx
	}
	if err := r.maybeCrash(); err != nil {
		return err
	}
	if err := r.writeState(stateMutating); err != nil {
		return err
	}
	r.fence() // fence 1
	if err := r.maybeCrash(); err != nil {
		return err
	}
	r.inTx = true
	r.log = r.log[:0]
	return nil
}

// Store writes data at a main-region offset inside a transaction,
// issuing the persistent write-back immediately (the persist<> store
// interposition of §V) and recording the range in the volatile log.
func (r *Romulus) Store(off int, data []byte) error {
	if !r.inTx {
		return ErrNoTransaction
	}
	if off < 0 || len(data) > r.regionSize-off {
		return fmt.Errorf("%w: off=%d len=%d region=%d", ErrBadOffset, off, len(data), r.regionSize)
	}
	if err := r.maybeCrash(); err != nil {
		return err
	}
	if err := r.dev.StoreFlush(r.mainStart+off, data, r.flushKind); err != nil {
		return err
	}
	r.env.chargeStoreExtra(r.dev, len(data))
	r.chargeFlushExtra(len(data))
	r.log = append(r.log, pm.Extent{Off: off, N: len(data)})
	r.env.chargeLogAppend(r.dev, len(r.log))
	return r.maybeCrash()
}

// Load reads from a main-region offset. Valid inside or outside a
// transaction (reads see in-place mutations).
func (r *Romulus) Load(off int, buf []byte) error {
	if off < 0 || len(buf) > r.regionSize-off {
		return fmt.Errorf("%w: off=%d len=%d region=%d", ErrBadOffset, off, len(buf), r.regionSize)
	}
	return r.dev.Load(r.mainStart+off, buf)
}

// Commit makes the transaction durable and synchronises the back region.
func (r *Romulus) Commit() error {
	if !r.inTx {
		return ErrNoTransaction
	}
	// All mutation write-backs were issued; order them.
	r.fence() // fence 2
	if err := r.maybeCrash(); err != nil {
		return err
	}
	if err := r.writeState(stateCopying); err != nil {
		return err
	}
	r.fence() // fence 3
	if err := r.maybeCrash(); err != nil {
		return err
	}
	// Propagate the log main -> back in one batch. Each entry is still a
	// crash step: a crash point among them propagates up to it, then fires.
	ents := r.log
	if k := r.crashAt - r.crashStep; k >= 1 && k < len(ents) {
		ents = ents[:k]
	}
	if err := r.propagate(r.backStart, r.mainStart, ents); err != nil {
		return err
	}
	for range ents {
		if err := r.maybeCrash(); err != nil {
			return err
		}
	}
	r.fence() // fence 4
	if err := r.maybeCrash(); err != nil {
		return err
	}
	if err := r.writeState(stateIdle); err != nil {
		return err
	}
	// The IDLE write-back is ordered by the next transaction's fence.
	r.inTx = false
	r.log = r.log[:0]
	return nil
}

// Abort rolls the transaction back by restoring the logged ranges from
// the back region.
func (r *Romulus) Abort() error {
	if !r.inTx {
		return ErrNoTransaction
	}
	if err := r.propagate(r.mainStart, r.backStart, r.log); err != nil {
		return err
	}
	r.fence()
	if err := r.writeState(stateIdle); err != nil {
		return err
	}
	r.fence()
	r.inTx = false
	r.log = r.log[:0]
	if err := r.loadUsed(); err != nil {
		return err
	}
	return nil
}

// Update runs fn inside a transaction, committing on success and
// aborting on error.
func (r *Romulus) Update(fn func() error) error {
	if err := r.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		if errors.Is(err, errCrashPointHit) {
			return err // device already crashed; nothing to abort
		}
		if abortErr := r.Abort(); abortErr != nil {
			return fmt.Errorf("abort after %v: %w", err, abortErr)
		}
		return err
	}
	return r.Commit()
}

// Recover restores consistency after a crash (paper Algorithm 1 /
// Romulus recovery): MUTATING -> back over main; COPYING -> main over
// back; IDLE -> nothing.
func (r *Romulus) Recover() error {
	state, err := r.readState()
	if err != nil {
		return err
	}
	switch state {
	case stateIdle:
		// Nothing to do.
	case stateMutating:
		if err := r.copyRegion(r.backStart, r.mainStart); err != nil {
			return err
		}
	case stateCopying:
		if err := r.copyRegion(r.mainStart, r.backStart); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: state=%d", ErrCorruptHeader, state)
	}
	if err := r.writeState(stateIdle); err != nil {
		return err
	}
	r.fence()
	r.inTx = false
	r.log = r.log[:0]
	return r.loadUsed()
}

// copyRegion restores the torn region at dst from the consistent one at
// src. Only [0, used) is copied, used being the CONSISTENT side's
// allocator cursor: the cursor only grows, everything a transaction can
// have touched lies below the larger of the two cursors, and bytes past
// the consistent cursor are unallocated in the state being restored —
// so recovery moves (and is charged for) the live heap, not the device.
func (r *Romulus) copyRegion(src, dst int) error {
	used, err := r.readUsed(src)
	if err != nil {
		return err
	}
	return r.propagate(dst, src, []pm.Extent{{Off: 0, N: used}})
}

// allocator and roots ---------------------------------------------------

// AllocAlign is the heap allocator's alignment: every Alloc consumes
// a multiple of it, so clients that re-lay out regions in place (the
// publication slot GC in package mirror) can predict exact consumption.
const AllocAlign = 8

// Alloc bump-allocates size bytes in the persistent heap inside the
// current transaction and returns the main-region offset. The allocator
// cursor is itself persistent data covered by the twin-copy protocol.
// There is no Free: Plinius allocates its mirror model and data matrix
// once per job (§IV); reclaiming space means reformatting the heap.
func (r *Romulus) Alloc(size int) (int, error) {
	if !r.inTx {
		return 0, ErrNoTransaction
	}
	if size <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrAllocNonPositive, size)
	}
	aligned := (size + AllocAlign - 1) / AllocAlign * AllocAlign
	if r.used+aligned > r.regionSize {
		return 0, fmt.Errorf("%w: used=%d want=%d region=%d", ErrOutOfSpace, r.used, aligned, r.regionSize)
	}
	off := r.used
	newUsed := r.used + aligned
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(newUsed))
	if err := r.Store(usedOffset, buf[:]); err != nil {
		return 0, err
	}
	r.used = newUsed
	return off, nil
}

// SetRoot durably records a root offset (inside a transaction) so
// recovery code can locate persistent structures.
func (r *Romulus) SetRoot(i, off int) error {
	if i < 0 || i >= NumRoots {
		return fmt.Errorf("%w: %d", ErrBadRoot, i)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(off))
	return r.Store(rootOffset+8*i, buf[:])
}

// Root reads a root offset; zero means unset.
func (r *Romulus) Root(i int) (int, error) {
	if i < 0 || i >= NumRoots {
		return 0, fmt.Errorf("%w: %d", ErrBadRoot, i)
	}
	var buf [8]byte
	if err := r.Load(rootOffset+8*i, buf[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(buf[:])), nil
}

// typed helpers ---------------------------------------------------------

// StoreUint64 stores v at off inside a transaction.
func (r *Romulus) StoreUint64(off int, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return r.Store(off, buf[:])
}

// LoadUint64 loads a uint64 from off.
func (r *Romulus) LoadUint64(off int) (uint64, error) {
	var buf [8]byte
	if err := r.Load(off, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// RegionSize returns the usable size of the main region.
func (r *Romulus) RegionSize() int { return r.regionSize }

// Used returns the allocator cursor.
func (r *Romulus) Used() int { return r.used }

// Device returns the backing PM device.
func (r *Romulus) Device() *pm.Device { return r.dev }
