// Versioned model publication (the serving side of the mirroring
// module). Training overwrites the single mirror at RootModel every
// iteration, which is exactly what crash recovery wants and exactly
// what serving must not read from: a replica restoring mid-overwrite
// would observe a torn model, so v1 forbade Server.Refresh racing a
// MirrorOut.
//
// A Publication decouples the two: PublishOut seals the current
// parameters into an immutable, monotonically versioned snapshot in a
// separate PM region, and flips a "latest" pointer in one durable
// transaction. Readers pin a version before restoring from it; a
// pinned slot is never recycled, so a restore always reads a complete,
// self-consistent snapshot no matter how much training (or further
// publishing, or key rotation) happens concurrently.
//
// Persistent layout (root slot RootPublished, little-endian uint64):
//
//	pub header: latestVersion | numSlots | maxPubSlots x {version, modelOff, regionSize, qOff, qSize, qValid} | layoutOff | layoutCap
//
// Slot model regions are mirror model regions. A slot may additionally
// carry the quantized (int8) variant of the same version in a second
// region (qOff/qSize), mirrored from darknet.QuantizeNetwork's clone by
// the same MirrorOut: PublishOut writes it when asked (WithQuantized),
// and qValid — flipped in the same durable transaction as the version —
// records whether the variant is present, so a crash mid-publish can
// never expose a torn int8 region. Both regions follow one discipline
// (Publication.fitRegion): the recorded size makes slot recycling
// shape-proof, since Romulus has no free. A recycled region whose new
// payload fits is re-laid out in place (regionAllocator) and only a
// genuinely outgrown region is abandoned to the bump allocator (the
// leaked bytes are counted, as are the bytes reused in place).
// Offsets and sizes persist across retirements. Pin counts
// are volatile (a restart drops all pins, as the readers died with the
// process). The Publication handle itself serializes its in-memory
// bookkeeping; callers must still serialize the PM device access of
// PublishOut and Pin.Open/Restore against other PM users, exactly like
// every other romulus client in this repository.
package mirror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/romulus"
)

// Publication header layout.
const (
	pubHdrLatest   = 0
	pubHdrNumSlots = 8
	pubHdrSlots    = 16
	pubSlotEntry   = 48 // version(8) + modelOff(8) + regionSize(8) + qOff(8) + qSize(8) + qValid(8)

	// maxPubSlots bounds the publication table. Slots are recycled as
	// soon as they are neither latest nor pinned, so the table only
	// grows while old versions are actively pinned by restoring
	// replicas.
	maxPubSlots = 8

	// Serving layout pointer, stored alongside the slot table: the PM
	// offset and byte capacity of the region recording the shard plan
	// published snapshots split into and the fleet host serving each
	// range (layout region: numRanges | numGroups | numRanges x {from,
	// to} | numGroups x numRanges x host).
	pubHdrLayout = pubHdrSlots + maxPubSlots*pubSlotEntry

	pubHdrSize = pubHdrLayout + 16

	layoutCounts = 16 // numRanges(8) + numGroups(8)
)

// Publication errors.
var (
	ErrNoPublished    = errors.New("mirror: no published model version in PM")
	ErrSlotsPinned    = errors.New("mirror: all publication slots are pinned; release a pinned version first")
	ErrBadVersion     = errors.New("mirror: requested published version does not exist")
	ErrPinReleased    = errors.New("mirror: pin has already been released")
	ErrPubCorrupt     = errors.New("mirror: publication table is corrupt")
	errSlotSuperseded = errors.New("mirror: publication slot superseded mid-pin") // internal consistency check
)

// region is one model region of a publication slot: the fp32 snapshot
// or its int8 variant.
type region struct {
	off    int         // header offset; 0 = never allocated
	size   int         // heap bytes the region spans
	layers []layerNode // cached layout
}

// Offsets within a slot table entry: each region's (offset, size) pair,
// and the int8 validity flag.
const (
	slotFP32Region = 8
	slotInt8Region = 24
	slotInt8Valid  = 40
)

// pubSlot is one entry of the publication table.
type pubSlot struct {
	idx     int
	version uint64 // 0 = unpublished / retired
	fp32    region
	// int8 is allocated on the first WithQuantized publish into the
	// slot; int8Valid marks whether the slot's CURRENT version carries
	// it.
	int8      region
	int8Valid bool
	pins      int
}

// Publication is a handle to the versioned publication table in PM.
type Publication struct {
	rom    *romulus.Romulus
	hdrOff int

	mu     sync.Mutex // guards latest, slots' version/pins bookkeeping
	latest uint64
	slots  []*pubSlot

	// Slot GC accounting (volatile): bytes of recycled regions
	// re-laid out in place vs abandoned in the bump allocator.
	reused int
	leaked int
}

// PublicationExists reports whether a publication table is rooted.
func PublicationExists(rom *romulus.Romulus) bool {
	off, err := rom.Root(RootPublished)
	return err == nil && off != 0
}

// OpenPublication attaches to the publication table, creating an empty
// one (in a durable transaction) on first use.
func OpenPublication(rom *romulus.Romulus) (*Publication, error) {
	hdr, err := rom.Root(RootPublished)
	if err != nil {
		return nil, err
	}
	p := &Publication{rom: rom}
	if hdr == 0 {
		err := rom.Update(func() error {
			off, err := rom.Alloc(pubHdrSize)
			if err != nil {
				return err
			}
			p.hdrOff = off
			// Freshly allocated PM is zeroed: latest 0, no slots.
			return rom.SetRoot(RootPublished, off)
		})
		if err != nil {
			return nil, fmt.Errorf("mirror publication alloc: %w", err)
		}
		return p, nil
	}
	p.hdrOff = hdr
	latest, err := rom.LoadUint64(hdr + pubHdrLatest)
	if err != nil {
		return nil, err
	}
	numSlots, err := rom.LoadUint64(hdr + pubHdrNumSlots)
	if err != nil {
		return nil, err
	}
	if numSlots > maxPubSlots {
		return nil, fmt.Errorf("%w: %d slots", ErrPubCorrupt, numSlots)
	}
	p.latest = latest
	for i := 0; i < int(numSlots); i++ {
		entry := p.slotEntryOff(i)
		version, err := rom.LoadUint64(entry)
		if err != nil {
			return nil, err
		}
		int8Valid, err := rom.LoadUint64(entry + slotInt8Valid)
		if err != nil {
			return nil, err
		}
		s := &pubSlot{idx: i, version: version, int8Valid: int8Valid != 0}
		if s.fp32, err = loadRegion(rom, entry+slotFP32Region); err != nil {
			return nil, fmt.Errorf("publication slot %d: %w", i, err)
		}
		if s.int8, err = loadRegion(rom, entry+slotInt8Region); err != nil {
			return nil, fmt.Errorf("publication slot %d int8 region: %w", i, err)
		}
		p.slots = append(p.slots, s)
	}
	return p, nil
}

// loadRegion reads the region whose (offset, size) pair is at PM offset
// at, walking its layer list when it has been allocated.
func loadRegion(rom *romulus.Romulus, at int) (region, error) {
	off, err := rom.LoadUint64(at)
	if err != nil {
		return region{}, err
	}
	size, err := rom.LoadUint64(at + 8)
	if err != nil {
		return region{}, err
	}
	r := region{off: int(off), size: int(size)}
	if r.off != 0 {
		m, err := openModelAt(rom, nil, r.off)
		if err != nil {
			return region{}, err
		}
		r.layers = m.layers
	}
	return r, nil
}

// LatestVersion returns the most recently published version, 0 if none.
func (p *Publication) LatestVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

// slotEntryOff returns the PM offset of slot i's table entry.
func (p *Publication) slotEntryOff(i int) int {
	return p.hdrOff + pubHdrSlots + i*pubSlotEntry
}

// pickSlot chooses (or allocates) a slot that can be overwritten:
// unpinned and not the latest published version. Preference order:
// a recyclable slot whose region already matches the shape (buffers
// rewritten directly), then one whose region the new payload fits
// (re-laid out in place by PublishOut — no heap growth), then a fresh
// table slot, and only last a recyclable slot whose region must be
// abandoned. Called with p.mu held.
func (p *Publication) pickSlot(bufLayers [][]buffer) (*pubSlot, error) {
	need := regionSize(bufLayers)
	var fallback, fitting *pubSlot
	for _, s := range p.slots {
		if s.pins > 0 || (s.version == p.latest && p.latest != 0) {
			continue
		}
		if s.fp32.off != 0 && layersMatch(s.fp32.layers, bufLayers) == nil {
			return s, nil
		}
		if fitting == nil && s.fp32.off != 0 && need <= s.fp32.size {
			fitting = s
		}
		fallback = s
	}
	if fitting != nil {
		return fitting, nil
	}
	if len(p.slots) < maxPubSlots {
		idx := len(p.slots)
		s := &pubSlot{idx: idx}
		err := p.rom.Update(func() error {
			return p.rom.StoreUint64(p.hdrOff+pubHdrNumSlots, uint64(idx+1))
		})
		if err != nil {
			return nil, err
		}
		p.slots = append(p.slots, s)
		return s, nil
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, ErrSlotsPinned
}

// layersMatch checks a cached persistent layout against the network's
// buffers, mirroring Model.matches without a Model handle.
func layersMatch(layers []layerNode, bufLayers [][]buffer) error {
	m := &Model{layers: layers}
	return m.matches(bufLayers)
}

// fitRegion makes r — whose (offset, size) pair is at PM offset at in the
// slot table — hold a region laid out for bufLayers. A region that
// already matches is kept. A retired region big enough for the new
// shape is re-laid out in place (Romulus has no free, so this is the
// only reclamation); an outgrown one is abandoned to the bump allocator
// and a fresh one allocated. Called with p.mu held.
func (p *Publication) fitRegion(r *region, at int, bufLayers [][]buffer) error {
	if r.off != 0 && layersMatch(r.layers, bufLayers) == nil {
		return nil
	}
	need := regionSize(bufLayers)
	if r.off != 0 && need <= r.size {
		err := p.rom.Update(func() error {
			hdr, layers, err := allocRegionWith(p.rom, regionAllocator(r.off, r.size), bufLayers)
			if err != nil {
				return err
			}
			// The header is the region's first allocation, so its offset
			// and size are unchanged.
			if hdr != r.off {
				return fmt.Errorf("%w: reused region header moved %d -> %d", ErrPubCorrupt, r.off, hdr)
			}
			r.layers = layers
			return nil
		})
		if err == nil {
			p.reused += need
		}
		return err
	}
	abandoned := r.size
	err := p.rom.Update(func() error {
		hdr, layers, err := allocRegionWith(p.rom, p.rom.Alloc, bufLayers)
		if err != nil {
			return err
		}
		*r = region{off: hdr, size: need, layers: layers}
		if err := p.rom.StoreUint64(at, uint64(hdr)); err != nil {
			return err
		}
		return p.rom.StoreUint64(at+8, uint64(need))
	})
	if err == nil {
		p.leaked += abandoned
	}
	return err
}

// write lays r out for net (see fitRegion) and mirrors net into it.
func (p *Publication) write(eng *engine.Engine, r *region, at int, net *darknet.Network) error {
	if err := p.fitRegion(r, at, collectBuffers(net)); err != nil {
		return err
	}
	m := &Model{rom: p.rom, eng: eng, headOff: r.off, layers: r.layers}
	return m.MirrorOut(net)
}

// PublishOption configures one PublishOut call.
type PublishOption func(*publishConfig)

type publishConfig struct {
	quantized bool
}

// WithQuantized makes PublishOut additionally seal an int8-quantized
// variant of the snapshot into the slot's int8 region, restorable via
// Pin.Open at darknet.Int8 with ~4x smaller sealed payload.
func WithQuantized() PublishOption {
	return func(c *publishConfig) { c.quantized = true }
}

// PublishOut seals net's parameters into an immutable snapshot and
// publishes it as the next version. The snapshot region is written
// first (its slot marked unpublished), then the version and the latest
// pointer flip in one durable transaction — a crash at any point leaves
// the previous latest version intact and restorable. With
// WithQuantized, the int8 variant is written before that flip and its
// validity bit rides in the same transaction.
//
// The caller must serialize PM access (PublishOut vs other romulus
// users); the publication's own bookkeeping is internally locked.
func (p *Publication) PublishOut(eng *engine.Engine, net *darknet.Network, opts ...PublishOption) (uint64, error) {
	var cfg publishConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	var qnet *darknet.Network
	if cfg.quantized {
		var err error
		if qnet, err = darknet.QuantizeNetwork(net); err != nil {
			return 0, fmt.Errorf("publish quantize: %w", err)
		}
	}
	bufLayers := collectBuffers(net)
	p.mu.Lock()
	defer p.mu.Unlock()

	slot, err := p.pickSlot(bufLayers)
	if err != nil {
		return 0, err
	}
	entry := p.slotEntryOff(slot.idx)
	// Retire the slot before overwriting its bytes so a crash mid-write
	// cannot leave a stale version number pointing at torn content. The
	// int8 validity bit is cleared in the same transaction: whatever the
	// int8 region holds is now unowned bytes.
	if slot.version != 0 || slot.int8Valid {
		err := p.rom.Update(func() error {
			if err := p.rom.StoreUint64(entry, 0); err != nil {
				return err
			}
			return p.rom.StoreUint64(entry+slotInt8Valid, 0)
		})
		if err != nil {
			return 0, err
		}
		slot.version = 0
		slot.int8Valid = false
	}
	if err := p.write(eng, &slot.fp32, entry+slotFP32Region, net); err != nil {
		return 0, fmt.Errorf("publish seal: %w", err)
	}
	if qnet != nil {
		if err := p.write(eng, &slot.int8, entry+slotInt8Region, qnet); err != nil {
			return 0, fmt.Errorf("publish int8 seal: %w", err)
		}
	}
	newVer := p.latest + 1
	err = p.rom.Update(func() error {
		if err := p.rom.StoreUint64(entry, newVer); err != nil {
			return err
		}
		if qnet != nil {
			if err := p.rom.StoreUint64(entry+slotInt8Valid, 1); err != nil {
				return err
			}
		}
		return p.rom.StoreUint64(p.hdrOff+pubHdrLatest, newVer)
	})
	if err != nil {
		return 0, err
	}
	slot.version = newVer
	slot.int8Valid = qnet != nil
	p.latest = newVer
	return newVer, nil
}

// Pin is a reader's hold on one published version: while held, the
// version's slot is never recycled by PublishOut.
type Pin struct {
	pub      *Publication
	slot     *pubSlot
	version  uint64
	released bool
	mu       sync.Mutex
}

// Pin pins a published version (0 pins the latest) and returns the
// hold. Release it when the restore is done.
func (p *Publication) Pin(version uint64) (*Pin, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.latest == 0 {
		return nil, ErrNoPublished
	}
	if version == 0 {
		version = p.latest
	}
	for _, s := range p.slots {
		if s.version == version && version != 0 {
			s.pins++
			return &Pin{pub: p, slot: s, version: version}, nil
		}
	}
	return nil, fmt.Errorf("%w: version %d (latest %d)", ErrBadVersion, version, p.latest)
}

// Version returns the pinned version number.
func (pin *Pin) Version() uint64 { return pin.version }

// ErrNoQuant is returned by Pin.Open at darknet.Int8 when the pinned
// version was published without a quantized variant.
var ErrNoQuant = errors.New("mirror: published version has no quantized variant")

// Open returns a Model handle over the pinned snapshot at prec — the
// fp32 snapshot, or at darknet.Int8 its quantized variant, which
// MirrorIn and MirrorInRange restore into a darknet.QuantizeNetwork
// clone — decrypting with the reader's own engine (each replica enclave
// holds its own engine instance over the provisioned data key). PM
// access through the handle must be serialized by the caller like any
// other romulus use.
func (pin *Pin) Open(eng *engine.Engine, prec darknet.Precision, opts ...Option) (*Model, error) {
	pin.mu.Lock()
	released := pin.released
	pin.mu.Unlock()
	if released {
		return nil, ErrPinReleased
	}
	pin.pub.mu.Lock()
	r, present := pin.slot.fp32, true
	if prec == darknet.Int8 {
		r, present = pin.slot.int8, pin.slot.int8Valid
	}
	ok := pin.slot.version == pin.version
	pin.pub.mu.Unlock()
	if !ok {
		// Cannot happen while the pin is held (pinned slots are never
		// recycled); kept as a hard consistency check.
		return nil, errSlotSuperseded
	}
	if !present {
		return nil, ErrNoQuant
	}
	return openModelAt(pin.pub.rom, eng, r.off, opts...)
}

// HasQuant reports whether the pinned version carries a quantized
// (int8) snapshot variant.
func (pin *Pin) HasQuant() bool {
	pin.mu.Lock()
	released := pin.released
	pin.mu.Unlock()
	if released {
		return false
	}
	pin.pub.mu.Lock()
	defer pin.pub.mu.Unlock()
	return pin.slot.version == pin.version && pin.slot.int8Valid
}

// Layout is the serving layout of the published model: the shard plan
// (the contiguous layer ranges [From, To) snapshots are split into)
// and, for a fleet, the host serving each range in each replica group.
// Hosts[g][s] is the position, in the fleet's host list at planning
// time, of the host serving Plan[s] in group g; a shard group that
// plans its own split records no hosts. Layer ranges (not persistent
// node ranges) are recorded because they uniquely determine the split —
// parameter-less layers at a boundary would make node ranges ambiguous.
type Layout struct {
	Plan  []darknet.ShardRange
	Hosts [][]int
}

func (l Layout) equal(o Layout) bool {
	return slices.Equal(l.Plan, o.Plan) && slices.EqualFunc(l.Hosts, o.Hosts, slices.Equal[[]int])
}

// encode returns the layout region's bytes.
func (l Layout) encode() []byte {
	words := []int{len(l.Plan), len(l.Hosts)}
	for _, r := range l.Plan {
		words = append(words, r.From, r.To)
	}
	for _, row := range l.Hosts {
		words = append(words, row...)
	}
	buf := make([]byte, 0, 8*len(words))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return buf
}

// layoutRegion reads the layout region's (offset, capacity) pair from
// the header, 0, 0 when no layout is recorded, and fails when the pair
// names anything but a region inside the device.
func (p *Publication) layoutRegion() (off, capBytes int, err error) {
	var hdr [16]byte
	if err := p.rom.Load(p.hdrOff+pubHdrLayout, hdr[:]); err != nil {
		return 0, 0, err
	}
	o, c := binary.LittleEndian.Uint64(hdr[:8]), binary.LittleEndian.Uint64(hdr[8:])
	if o == 0 {
		return 0, 0, nil
	}
	region := uint64(p.rom.RegionSize())
	if o > region || c < layoutCounts || c > region-o {
		return 0, 0, fmt.Errorf("%w: layout region at %d, capacity %d", ErrPubCorrupt, o, c)
	}
	return int(o), int(c), nil
}

// RecordLayout persists the serving layout in one durable transaction,
// so a shard group or fleet re-created after a crash restores exactly
// the split and placement the previous incarnation served with — the
// plan and its hosts always from the same write. The recorded region is
// rewritten in place when the layout fits it; a larger layout takes a
// fresh region (the old one is abandoned to the bump allocator, like
// any outgrown slot region). Recording the layout already on record
// writes nothing. The caller serializes PM access, as with every other
// romulus use.
func (p *Publication) RecordLayout(l Layout) error {
	if len(l.Plan) == 0 {
		return errors.New("mirror: empty serving layout")
	}
	for g, row := range l.Hosts {
		if len(row) != len(l.Plan) {
			return fmt.Errorf("mirror: layout group %d places %d of %d ranges", g, len(row), len(l.Plan))
		}
	}
	if cur, err := p.Layout(); err == nil && cur.equal(l) {
		return nil
	}
	buf := l.encode()
	off, capBytes, err := p.layoutRegion()
	if err != nil || len(buf) > capBytes {
		off = 0 // corrupt or outgrown: take a fresh region
	}
	return p.rom.Update(func() error {
		if off == 0 {
			region, err := p.rom.Alloc(len(buf))
			if err != nil {
				return err
			}
			off = region
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(region))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(len(buf)))
			if err := p.rom.Store(p.hdrOff+pubHdrLayout, hdr[:]); err != nil {
				return err
			}
		}
		return p.rom.Store(off, buf)
	})
}

// Layout reads the recorded serving layout, the zero Layout when none
// has been recorded. The region is untrusted PM: every count is bounded
// by what the recorded region can hold — itself bounded by the device —
// before anything is allocated, and every host row has len(Plan)
// entries. Range and host values are returned as recorded; callers
// check them against the model and the fleet. The caller serializes PM
// access.
func (p *Publication) Layout() (Layout, error) {
	off, capBytes, err := p.layoutRegion()
	if err != nil || off == 0 {
		return Layout{}, err
	}
	var counts [layoutCounts]byte
	if err := p.rom.Load(off, counts[:]); err != nil {
		return Layout{}, err
	}
	ranges, groups := binary.LittleEndian.Uint64(counts[:8]), binary.LittleEndian.Uint64(counts[8:])
	words := uint64(capBytes-layoutCounts) / 8
	if ranges == 0 || ranges > words/2 || groups > (words-2*ranges)/ranges {
		return Layout{}, fmt.Errorf("%w: layout of %d ranges x %d groups in a %d-byte region", ErrPubCorrupt, ranges, groups, capBytes)
	}
	n, g := int(ranges), int(groups)
	vals := make([]int, 2*n+g*n)
	for i := range vals {
		v, err := p.rom.LoadUint64(off + layoutCounts + 8*i)
		if err != nil {
			return Layout{}, err
		}
		vals[i] = int(v)
	}
	l := Layout{Plan: make([]darknet.ShardRange, n)}
	for i := range l.Plan {
		l.Plan[i] = darknet.ShardRange{From: vals[2*i], To: vals[2*i+1]}
	}
	if g > 0 {
		l.Hosts = make([][]int, g)
		for i := range l.Hosts {
			at := 2*n + i*n
			l.Hosts[i] = vals[at : at+n : at+n]
		}
	}
	return l, nil
}

// Release drops the hold, allowing the slot to be recycled once the
// version is superseded. Release is idempotent.
func (pin *Pin) Release() {
	pin.mu.Lock()
	if pin.released {
		pin.mu.Unlock()
		return
	}
	pin.released = true
	pin.mu.Unlock()
	pin.pub.mu.Lock()
	pin.slot.pins--
	pin.pub.mu.Unlock()
}
