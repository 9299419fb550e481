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
// Bulk payloads live outside the twin copy. The logged heap grows up
// from the allocator cursor, and payload extents grow down from the top
// of the regions from a second cursor; both cursors sit in the
// twin-copied reserved prefix. A payload extent [off, off+n) exists in
// both regions, and its main half and back half are two independent
// slots: a client writes a half in place while nothing references it
// (FillPayload: one store and write-back, no log, no copy) and then
// flips its reference in a small transaction, whose first fence orders
// the payload write-backs before the flip (shadow paging, Lorie 1977).
// Transactions and recovery copy only the logged heap below the
// allocator cursor, so they never touch a payload.
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

	// Reserved prefix of the main region: the allocator bump offset, the
	// root pointer table and the payload cursor live inside main so the
	// twin-copy protocol protects them like any other persistent data.
	usedOffset    = 0
	rootOffset    = 8
	NumRoots      = 8
	lowOffset     = rootOffset + 8*NumRoots
	reservedBytes = 2 * pm.CacheLineSize // 8B used + 8x8B roots + 8B payload cursor, padded
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
	ErrAllocNonPositive = errors.New("romulus: allocation size must be positive")
)

// Romulus manages twin-copy durable transactions on one PM device. It is
// single-goroutine per the paper's single-threaded training loop, except
// that FillPayload and ViewPayload of disjoint ranges may
// run on several goroutines while nothing else uses the heap; the
// underlying device is race-safe.
type Romulus struct {
	dev        *pm.Device
	env        Env
	flushKind  pm.FlushKind
	regionSize int // size of each of main/back
	mainStart  int
	backStart  int
	log        []pm.Extent // main-region-relative ranges stored this tx
	logEnd     int         // end of the highest range stored this tx
	inTx       bool
	used       int // cached allocator offset (authoritative copy in PM)
	low        int // cached payload cursor (authoritative copy in PM)
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
	if err := r.loadCursors(); err != nil {
		return nil, err
	}
	return r, nil
}

// format initialises an empty heap: both regions consistent and empty.
func (r *Romulus) format() error {
	// used = reservedBytes and the payload cursor at the top, in both
	// main and back; roots zero.
	var prefix [reservedBytes]byte
	binary.LittleEndian.PutUint64(prefix[usedOffset:], uint64(reservedBytes))
	binary.LittleEndian.PutUint64(prefix[lowOffset:], uint64(r.regionSize))
	for _, region := range [2]int{r.mainStart, r.backStart} {
		if err := r.dev.Store(region, prefix[:]); err != nil {
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

// readCursors reads and validates the allocator and payload cursors of
// the region (main or back) starting at regionStart: the heap and the
// payload extents must not overlap, and extents stay line-aligned.
func (r *Romulus) readCursors(regionStart int) (used, low int, err error) {
	var prefix [reservedBytes]byte
	if err := r.dev.Load(regionStart, prefix[:]); err != nil {
		return 0, 0, err
	}
	u := binary.LittleEndian.Uint64(prefix[usedOffset:])
	l := binary.LittleEndian.Uint64(prefix[lowOffset:])
	if u < reservedBytes || u > uint64(r.regionSize) {
		return 0, 0, fmt.Errorf("%w: used=%d", ErrCorruptHeader, u)
	}
	if l < u || l > uint64(r.regionSize) || l%PayloadAlign != 0 {
		return 0, 0, fmt.Errorf("%w: payload cursor %d, used %d, region %d", ErrCorruptHeader, l, u, r.regionSize)
	}
	return int(u), int(l), nil
}

func (r *Romulus) loadCursors() error {
	used, low, err := r.readCursors(r.mainStart)
	if err != nil {
		return err
	}
	r.used, r.low = used, low
	return nil
}

// propagate copies the extents of the region at src over the region at
// dst and writes them back, in one device CopyFlush accounted as the
// load + store + flush of each extent. No crash point falls between a
// store and its write-back, so the lines end clean and the device moves
// each byte once, across cores for a large log.
func (r *Romulus) propagate(dst, src int, ext []pm.Extent) error {
	n, err := r.dev.CopyFlush(dst, src, ext, r.flushKind)
	for _, e := range ext[:n] {
		r.chargeFlushExtra(e.N)
	}
	return err
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

// transactions ----------------------------------------------------------

// Begin opens a durable transaction.
func (r *Romulus) Begin() error {
	if r.inTx {
		return ErrNestedTx
	}
	if err := r.writeState(stateMutating); err != nil {
		return err
	}
	r.fence() // fence 1
	r.inTx = true
	r.log, r.logEnd = r.log[:0], 0
	return nil
}

// Store writes data at a main-region offset inside a transaction,
// issuing the persistent write-back immediately (the persist<> store
// interposition of §V) and recording the range in the volatile log.
// The range must lie below the payload cursor: the commit copies it to
// back, which would overwrite a payload extent's back half.
func (r *Romulus) Store(off int, data []byte) error {
	if !r.inTx {
		return ErrNoTransaction
	}
	if off < 0 || len(data) > r.low-off {
		return fmt.Errorf("%w: off=%d len=%d payload cursor=%d", ErrBadOffset, off, len(data), r.low)
	}
	if err := r.dev.StoreFlush(r.mainStart+off, data, r.flushKind); err != nil {
		return err
	}
	r.env.chargeStoreExtra(r.dev, len(data))
	r.chargeFlushExtra(len(data))
	r.log = append(r.log, pm.Extent{Off: off, N: len(data)})
	r.logEnd = max(r.logEnd, off+len(data))
	r.env.chargeLogAppend(r.dev, len(r.log))
	return nil
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
	if err := r.writeState(stateCopying); err != nil {
		return err
	}
	r.fence() // fence 3
	// Propagate the log main -> back in one batch.
	if err := r.propagate(r.backStart, r.mainStart, r.log); err != nil {
		return err
	}
	r.fence() // fence 4
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
	return r.loadCursors()
}

// Update runs fn inside a transaction, committing on success and
// aborting on error.
func (r *Romulus) Update(fn func() error) error {
	if err := r.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
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
	return r.loadCursors()
}

// copyRegion restores the torn region at dst from the consistent one at
// src. Only [0, used) is copied, used being the CONSISTENT side's
// allocator cursor: the cursor only grows, everything a transaction can
// have touched lies below the larger of the two cursors, and bytes past
// the consistent cursor are unallocated in the state being restored —
// so recovery moves (and is charged for) the live heap, not the device,
// and never a payload extent.
func (r *Romulus) copyRegion(src, dst int) error {
	used, _, err := r.readCursors(src)
	if err != nil {
		return err
	}
	return r.propagate(dst, src, []pm.Extent{{Off: 0, N: used}})
}

// allocator and roots ---------------------------------------------------

// AllocAlign is the heap allocator's alignment: every Alloc consumes
// a multiple of it, so clients that lay regions out before allocating
// them (the snapshot store in package mirror) can predict exact
// consumption.
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
	if aligned > r.low-r.used {
		return 0, fmt.Errorf("%w: used=%d want=%d payload cursor=%d", ErrOutOfSpace, r.used, aligned, r.low)
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

// PayloadAlign is the alignment of payload extents: every extent starts
// and ends on a cache line, so filling one never writes back a line of
// the logged heap or of another extent.
const PayloadAlign = pm.CacheLineSize

// AllocPayload allocates an n-byte payload extent inside the current
// transaction, growing down from the payload cursor, and returns its
// offset, which names the extent in both regions. It is the offset
// PayloadCursor() - n, n rounded up to PayloadAlign, so a client can
// fill the extent before allocating it and allocate it in the
// transaction that references it. The cursor is persistent data covered
// by the twin-copy protocol; the extent's bytes are not. It fails when
// the extent would meet the heap, or a range this transaction stored.
func (r *Romulus) AllocPayload(n int) (int, error) {
	if !r.inTx {
		return 0, ErrNoTransaction
	}
	if n <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrAllocNonPositive, n)
	}
	aligned := (n + PayloadAlign - 1) / PayloadAlign * PayloadAlign
	if aligned > r.low-max(r.used, r.logEnd) {
		return 0, fmt.Errorf("%w: payload cursor=%d want=%d used=%d", ErrOutOfSpace, r.low, aligned, r.used)
	}
	low := r.low - aligned
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(low))
	if err := r.Store(lowOffset, buf[:]); err != nil {
		return 0, err
	}
	r.low = low
	return low, nil
}

// FillPayload writes n bytes at offset off of payload half half (0 the
// main region, 1 the back region) in place, outside any transaction:
// fill writes them straight into PM (pm.Device.FillFlush) and they are
// written back, one store and one write-back with SGX-Romulus's extra
// costs, but neither logged nor copied. The range must lie above the
// allocator cursor: in an allocated extent, or in the free space below
// the payload cursor that the next AllocPayload returns. Nothing may
// reference the half being filled until a later transaction flips it
// in; fills of disjoint ranges may run on several goroutines.
func (r *Romulus) FillPayload(half, off, n int, fill func(dst []byte) error) error {
	start, err := r.payloadStart(half, off, n, r.used)
	if err != nil {
		return err
	}
	err = r.dev.FillFlush(start, n, r.flushKind, fill)
	if !errors.Is(err, pm.ErrCrashed) {
		r.env.chargeStoreExtra(r.dev, n)
		r.chargeFlushExtra(n)
	}
	return err
}

// ViewPayload lends view the n bytes at offset off of payload half
// half in place (pm.Device.LoadView): a Load's counters and modeled
// time, without the copy. The range must lie inside the allocated
// payload extents. view runs without the device
// lock, must not write the bytes or keep them past its return, and
// must read each byte it relies on once; views of disjoint ranges may
// run on several goroutines.
func (r *Romulus) ViewPayload(half, off, n int, view func(src []byte) error) error {
	start, err := r.payloadStart(half, off, n, r.low)
	if err != nil {
		return err
	}
	return r.dev.LoadView(start, n, view)
}

// payloadStart returns the device offset of [off, off+n) in payload
// half half, which must lie between floor and the end of the region.
func (r *Romulus) payloadStart(half, off, n, floor int) (int, error) {
	if half != 0 && half != 1 {
		return 0, fmt.Errorf("%w: payload half %d", ErrBadOffset, half)
	}
	if off < floor || n < 0 || n > r.regionSize-off {
		return 0, fmt.Errorf("%w: payload off=%d len=%d, bounds [%d, %d)", ErrBadOffset, off, n, floor, r.regionSize)
	}
	return r.mainStart + half*r.regionSize + off, nil
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

// PayloadCursor returns the payload cursor: the payload extents occupy
// [PayloadCursor(), RegionSize()), and the free space lies between it
// and Used().
func (r *Romulus) PayloadCursor() int { return r.low }

// Device returns the backing PM device.
func (r *Romulus) Device() *pm.Device { return r.dev }
