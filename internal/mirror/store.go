// The snapshot store: one persistent table of frames that holds the
// training mirror and every published version (the serving side of the
// mirroring module).
//
// Training overwrites the mirror every iteration, which is exactly what
// crash recovery wants and exactly what serving must not read from: a
// replica restoring mid-overwrite would observe a torn model. So the
// store names frames, never bytes: the mirror names its latest frame,
// the latest published version names a frame and the generation it
// holds, and a save only ever writes a frame neither names and no
// reader has pinned (Lorie's shadow slots, widened from two halves to a
// table of them). Publishing the mirror's latest generation is then one
// small transaction that records version → (frame, generation); a
// reader pins the version before restoring from it, so a restore always
// reads a complete, self-consistent snapshot no matter how much
// training, publishing or key rotation happens concurrently. Pins are
// volatile: a restart of the process drops all of them, as the readers
// died with it, and only the latest version survives one — an older
// version lives on only while a pin holds its frame. A store reopened
// after a crash of the training enclave alone (Reopen) keeps them.
//
// Persistent layout (root slot RootStore, little-endian uint64):
//
//	store header: format | mirror: iter, gen, frame+1 | latest: version, frame, gen, iter | topGen
//	              | layoutOff | layoutCap | numFrames | maxFrames x frame entry
//	frame entry : fp32 table off, size | int8 table off, size | int8Gen
//
// Frames are laid out in pairs, the two halves of one payload extent,
// each half with its own layer table (mirror.go); a frame that must
// change shape once the table is full is laid out afresh over an
// extent of its own. A frame may carry the int8 variant of its
// generation in a second region, over an extent of its own, sealed from
// darknet.QuantizeNetwork's clone when a publish asks for it
// (WithQuantized): int8Gen, written in the publish's transaction, names
// the generation the variant was sealed from, so a crash mid-publish
// never exposes a torn variant and a frame's next save invalidates it.
// topGen records the generation of the last save the mirror does not
// name, so generations never repeat within the store. The store handle
// serializes its in-memory bookkeeping; callers serialize PM access
// through it against every other romulus user, as everywhere in this
// repository.
package mirror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/romulus"
)

// Store header layout.
const (
	hdrFormat    = 0
	hdrMirror    = 8  // iter, gen, frame+1: one 24-byte store per MirrorOut
	hdrLatest    = 32 // version, frame, gen, iter
	hdrTopGen    = 64
	hdrLayout    = 72 // off, cap
	hdrNumFrames = 88
	hdrFrames    = 96
	frameEntry   = 40
	hdrSize      = hdrFrames + maxFrames*frameEntry

	// maxFrames bounds the frame table: the mirror's latest, the latest
	// version's, the one a save writes, and seven pinned older versions.
	maxFrames = 10

	// storeFormat is the header's format word, "PLNS" and layout
	// version 1. A store of another layout is refused, not misread.
	storeFormat = 0x504C4E53<<32 | 1

	// Serving layout region: numRanges | numGroups | numRanges x {from,
	// to} | numGroups x numRanges x host.
	layoutCounts = 16 // numRanges(8) + numGroups(8)
)

// Store errors.
var (
	ErrNoPublished  = errors.New("mirror: no published model version in PM")
	ErrFramesPinned = errors.New("mirror: every snapshot frame is named or pinned; release a pinned version first")
	ErrPinReleased  = errors.New("mirror: pin has already been released")
	ErrFormat       = errors.New("mirror: unknown snapshot store format")
	// ErrNoQuant is returned by Pin.Open at darknet.Int8 when the pinned
	// version was published without a quantized variant.
	ErrNoQuant = errors.New("mirror: published version has no quantized variant")
)

// ref names the generation gen of training iteration iter in a frame;
// frame -1 names nothing.
type ref struct {
	frame     int
	gen, iter uint64
}

// slot names the fp32 region of a frame, or with int8 its int8 one.
type slot struct {
	frame int
	int8  bool
}

// frame is one frame table entry: the layout of its fp32 half and of
// its int8 variant's (off 0: none), and the generation that variant was
// sealed from.
type frame struct {
	fp32, int8 region
	int8Gen    uint64
}

// at returns the region of f that holds the int8 variant when q is set,
// else the fp32 one.
func (f *frame) at(q bool) *region {
	if q {
		return &f.int8
	}
	return &f.fp32
}

// Store is a handle on the snapshot store in PM.
type Store struct {
	rom    *romulus.Romulus
	hdrOff int // 0 until the first transaction allocates the header

	mu     sync.Mutex // guards the fields below: pins change without the PM lock
	mirror ref
	latest uint64
	pub    ref // what the latest version names
	topGen uint64
	frames []frame
	pins   []int
}

// OpenStore attaches to the snapshot store with one Load of its header;
// the first transaction that writes one allocates and roots it. Layer
// tables are read when a frame is first used. The header is untrusted
// PM: an unknown format is ErrFormat, and a frame count or reference
// past the table is ErrCorrupt.
func OpenStore(rom *romulus.Romulus) (*Store, error) {
	s := &Store{rom: rom, mirror: ref{frame: -1}}
	hdr, err := rom.Root(RootStore)
	if err != nil || hdr == 0 {
		return s, err
	}
	var buf [hdrSize]byte
	if err := rom.Load(hdr, buf[:]); err != nil {
		return nil, err
	}
	w := func(at int) uint64 { return binary.LittleEndian.Uint64(buf[at:]) }
	if v := w(hdrFormat); v != storeFormat {
		return nil, fmt.Errorf("%w: format word %#x", ErrFormat, v)
	}
	n := w(hdrNumFrames)
	if n > maxFrames {
		return nil, fmt.Errorf("%w: %d frames", ErrCorrupt, n)
	}
	for i := 0; i < int(n); i++ {
		e := hdrFrames + i*frameEntry
		s.frames = append(s.frames, frame{
			fp32:    region{off: int(w(e)), size: int(w(e + 8))},
			int8:    region{off: int(w(e + 16)), size: int(w(e + 24))},
			int8Gen: w(e + 32),
		})
	}
	s.pins = make([]int, n)
	if f := w(hdrMirror + 16); f != 0 {
		if f > n {
			return nil, fmt.Errorf("%w: mirror in frame %d of %d", ErrCorrupt, f-1, n)
		}
		s.mirror = ref{frame: int(f - 1), gen: w(hdrMirror + 8), iter: w(hdrMirror)}
	}
	if s.latest = w(hdrLatest); s.latest != 0 {
		f := w(hdrLatest + 8)
		if f >= n {
			return nil, fmt.Errorf("%w: version %d in frame %d of %d", ErrCorrupt, s.latest, f, n)
		}
		s.pub = ref{frame: int(f), gen: w(hdrLatest + 16), iter: w(hdrLatest + 24)}
	}
	s.hdrOff, s.topGen = hdr, w(hdrTopGen)
	return s, nil
}

// Reopen re-reads the store from rom, the heap recovered after a crash,
// and keeps the pins held across the crash: readers outside the
// crashed enclave, such as serving replicas, keep the frames they
// pinned.
func (s *Store) Reopen(rom *romulus.Romulus) error {
	n, err := OpenStore(rom)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rom, s.hdrOff, s.mirror, s.latest, s.pub, s.topGen, s.frames = n.rom, n.hdrOff, n.mirror, n.latest, n.pub, n.topGen, n.frames
	for len(s.pins) < len(s.frames) {
		s.pins = append(s.pins, 0)
	}
	return nil
}

// Exists reports whether the store roots a training mirror.
func Exists(rom *romulus.Romulus) bool {
	hdr, err := rom.Root(RootStore)
	if err != nil || hdr == 0 {
		return false
	}
	f, err := rom.LoadUint64(hdr + hdrMirror + 16)
	return err == nil && f != 0
}

// update runs fn in one durable transaction with the header's offset,
// allocating and rooting the header first when the store has none.
func (s *Store) update(fn func(hdr int) error) error {
	hdr := s.hdrOff
	err := s.rom.Update(func() error {
		if hdr == 0 {
			off, err := s.rom.Alloc(hdrSize)
			if err != nil {
				return err
			}
			var img [hdrSize]byte
			binary.LittleEndian.PutUint64(img[hdrFormat:], storeFormat)
			if err := s.rom.Store(off, img[:]); err != nil {
				return err
			}
			if err := s.rom.SetRoot(RootStore, off); err != nil {
				return err
			}
			hdr = off
		}
		return fn(hdr)
	})
	if err == nil {
		s.hdrOff = hdr
	}
	return err
}

// model returns a handle on generation r of the frame laid out as reg.
func (s *Store) model(eng *engine.Engine, reg region, r ref, training bool, opts []Option) *Model {
	m := &Model{rom: s.rom, eng: eng, region: reg, gen: r.gen, iter: r.iter}
	if training {
		m.st = s
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// OpenMirror returns a handle on the store's training mirror, reading
// its frame's layer table: ErrNoMirror when none is rooted.
func (s *Store) OpenMirror(eng *engine.Engine, opts ...Option) (*Model, error) {
	s.mu.Lock()
	r := s.mirror
	var reg region
	err := ErrNoMirror
	if r.frame >= 0 {
		t := &s.frames[r.frame].fp32
		err = t.load(s.rom)
		reg = *t
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.model(eng, reg, r, true, opts), nil
}

// AllocMirror returns a handle on a training mirror of net that the
// first MirrorOut roots (Algorithm 3, alloc_mirror_model), writing no
// PM until then: a crash before that commits leaves no mirror and
// nothing allocated, and recovery trains from scratch (Algorithm 2,
// lines 7-12).
func (s *Store) AllocMirror(eng *engine.Engine, net *darknet.Network, opts ...Option) *Model {
	return s.model(eng, planRegion(collectBuffers(net), 0, 0, extent{}), ref{frame: -1}, true, opts)
}

// LatestVersion returns the most recently published version, 0 if none.
func (s *Store) LatestVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// PublishOption configures one publish.
type PublishOption func(*publishConfig)

type publishConfig struct {
	quantized bool
}

// WithQuantized makes a publish additionally seal an int8-quantized
// variant of the snapshot into its frame's int8 region, restorable via
// Pin.Open at darknet.Int8 with ~4x smaller sealed payload.
func WithQuantized() PublishOption {
	return func(c *publishConfig) { c.quantized = true }
}

// PublishOut seals net under eng into a free frame and publishes it as
// the next version, leaving the training mirror alone: one save and one
// durable transaction, so a crash at any point leaves the previous
// latest version intact and restorable.
func (s *Store) PublishOut(eng *engine.Engine, net *darknet.Network, opts ...PublishOption) (uint64, error) {
	return s.save(eng, net, nil, true, true, opts, nil)
}

// PublishOut saves net as m's next generation and publishes that
// generation as the next version, in one durable transaction: a
// MirrorOut and a publish for the price of one save.
func (m *Model) PublishOut(net *darknet.Network, opts ...PublishOption) (uint64, error) {
	return m.save(net, true, opts)
}

// PublishLatest publishes m's latest generation as the next version by
// reference: one small transaction that records version → (frame,
// generation), with no seal unless WithQuantized asks for an int8
// variant the frame does not hold yet, sealed from net — which must
// then hold the parameters of that generation.
func (m *Model) PublishLatest(net *darknet.Network, opts ...PublishOption) (uint64, error) {
	return m.st.save(m.eng, net, m, false, true, opts, nil)
}

// write is a save or publish sealed into frames nothing names yet,
// with the heap space it laid out at the cursors: flip allocates that
// space and names the frame in the caller's transaction, and save
// records it in the handles once that has committed.
type write struct {
	eng       *engine.Engine
	net       *darknet.Network
	mirror    *Model // names the frame as mirror's latest when fresh
	fresh     bool   // a new generation was sealed into frame
	version   uint64 // publishes the frame as this version when not 0
	frame     int
	gen, iter uint64

	used, low   int      // the cursors once the laid-out space is allocated
	metas, pays []extent // the laid-out space, in allocation order
	before      int      // the frame count before the write
	frames      []frame  // the frame table once the write commits
	busy        []bool   // frames a save must not write
	tables      []slot   // laid-out regions, whose tables flip stores
	dirty       []int    // frames whose entries flip stores

	aes             atomic.Int64
	sealed, qsealed int
}

// prepare seals a write: with fresh, net under eng into a free frame as
// the next generation (the mirror m's, when m is not nil, whose shape
// net must have), else m's latest generation as it stands; with
// publish, as the next version, with the int8 variant when the options
// ask for it and the frame lacks it.
func (s *Store) prepare(eng *engine.Engine, net *darknet.Network, m *Model, fresh, publish bool, opts []PublishOption) (*write, error) {
	var cfg publishConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	w := &write{eng: eng, net: net, fresh: fresh, used: s.rom.Used(), low: s.rom.PayloadCursor()}
	if fresh {
		w.mirror = m
	}
	if s.hdrOff == 0 {
		w.used += regionAlign(hdrSize)
	}
	s.mu.Lock()
	w.before, w.frames = len(s.frames), slices.Clone(s.frames)
	w.gen = max(s.topGen, s.mirror.gen, s.pub.gen) + 1
	w.busy = make([]bool, len(s.frames))
	for i := range w.busy {
		w.busy[i] = i == s.mirror.frame || s.latest != 0 && i == s.pub.frame || s.pins[i] > 0
	}
	if publish {
		w.version = s.latest + 1
	}
	cur := s.mirror
	s.mu.Unlock()

	if !fresh {
		if cur.frame < 0 {
			return nil, ErrNoMirror
		}
		w.frame, w.gen, w.iter = cur.frame, cur.gen, cur.iter
	} else {
		bufLayers := collectBuffers(net)
		if m != nil {
			if err := m.matches(bufLayers); err != nil {
				return nil, err
			}
		}
		if err := w.pick(s.rom, bufLayers); err != nil {
			return nil, err
		}
		w.iter = uint64(net.Iteration)
		n, err := seal(s.rom, eng, bufLayers, &w.frames[w.frame].fp32, w.gen, &w.aes)
		if err != nil {
			return nil, err
		}
		w.sealed = n
	}
	if !cfg.quantized || !publish || w.frames[w.frame].int8Gen == w.gen {
		return w, nil
	}
	qnet, err := darknet.QuantizeNetwork(net)
	if err != nil {
		return nil, fmt.Errorf("publish quantize: %w", err)
	}
	bufLayers := collectBuffers(qnet)
	r := &w.frames[w.frame].int8
	if r.off == 0 || r.load(s.rom) != nil || r.matches(bufLayers) != nil {
		if err := w.layout(bufLayers, true, w.frame); err != nil {
			return nil, err
		}
	}
	if w.qsealed, err = seal(s.rom, eng, bufLayers, r, w.gen, &w.aes); err != nil {
		return nil, fmt.Errorf("publish int8 seal: %w", err)
	}
	w.frames[w.frame].int8Gen = w.gen
	w.dirty = append(w.dirty, w.frame)
	return w, nil
}

// pick chooses the frame w seals bufLayers into: the first free frame
// laid out for them, else a new pair of frames over one new extent
// while the table has room, else a free frame laid out afresh. A frame
// is free when it is not the mirror's latest, not the latest version's
// and not pinned.
func (w *write) pick(rom *romulus.Romulus, bufLayers [][]buffer) error {
	spare := -1
	for i := range w.frames {
		if w.busy[i] {
			continue
		}
		if r := &w.frames[i].fp32; r.load(rom) == nil && r.matches(bufLayers) == nil {
			w.frame = i
			return nil
		}
		spare = i
	}
	switch n := len(w.frames); {
	case n+2 <= maxFrames:
		w.frame = n
		return w.layout(bufLayers, false, n, n+1)
	case spare >= 0:
		w.frame = spare
		return w.layout(bufLayers, false, spare)
	}
	return ErrFramesPinned
}

// layout lays out fresh regions for bufLayers at the write's cursors,
// one per frame of idx, over one new payload extent whose half j the
// j-th frame uses; q selects the frames' int8 regions.
func (w *write) layout(bufLayers [][]buffer, q bool, idx ...int) error {
	size := payloadSize(bufLayers)
	w.low -= size
	pay := extent{off: w.low, size: size}
	w.pays = append(w.pays, pay)
	for j, i := range idx {
		if i == len(w.frames) {
			w.frames = append(w.frames, frame{})
		}
		meta := extent{off: w.used, size: metaSize(bufLayers)}
		w.used += meta.size
		w.metas = append(w.metas, meta)
		*w.frames[i].at(q) = planRegion(bufLayers, meta.off, j, pay)
		w.tables = append(w.tables, slot{i, q})
		w.dirty = append(w.dirty, i)
	}
	if w.used > w.low {
		return fmt.Errorf("%w: no room for a %d-byte extent and its layer tables", romulus.ErrOutOfSpace, size)
	}
	return nil
}

// flip allocates the space w laid out, stores the new layer tables and
// frame entries, and names the frame, in the open transaction: as the
// mirror's latest generation (one 24-byte store), or else, for a fresh
// generation, as the highest a save has sealed; and as the latest
// version.
func (w *write) flip(rom *romulus.Romulus, hdr int) error {
	for _, e := range w.metas {
		if off, err := rom.Alloc(e.size); err != nil || off != e.off {
			return errors.Join(err, fmt.Errorf("%w: layer table planned at %d allocated at %d", ErrCorrupt, e.off, off))
		}
	}
	for _, e := range w.pays {
		if e.size == 0 {
			continue
		}
		if off, err := rom.AllocPayload(e.size); err != nil || off != e.off {
			return errors.Join(err, fmt.Errorf("%w: extent planned at %d allocated at %d", ErrCorrupt, e.off, off))
		}
	}
	for _, t := range w.tables {
		r := w.frames[t.frame].at(t.int8)
		if err := rom.Store(r.off, r.encode()); err != nil {
			return err
		}
	}
	for i, f := range w.frames {
		if !slices.Contains(w.dirty, i) {
			continue
		}
		if err := rom.Store(hdr+hdrFrames+i*frameEntry, words(uint64(f.fp32.off), uint64(f.fp32.size),
			uint64(f.int8.off), uint64(f.int8.size), f.int8Gen)); err != nil {
			return err
		}
	}
	if len(w.frames) != w.before {
		if err := rom.StoreUint64(hdr+hdrNumFrames, uint64(len(w.frames))); err != nil {
			return err
		}
	}
	var err error
	switch {
	case w.mirror != nil:
		err = rom.Store(hdr+hdrMirror, words(w.iter, w.gen, uint64(w.frame+1)))
	case w.fresh:
		err = rom.StoreUint64(hdr+hdrTopGen, w.gen)
	}
	if err == nil && w.version != 0 {
		err = rom.Store(hdr+hdrLatest, words(w.version, uint64(w.frame), w.gen, w.iter))
	}
	return err
}

// words returns vs as little-endian uint64s.
func words(vs ...uint64) []byte {
	buf := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// save prepares a write (see prepare), flips it in one durable
// transaction, then runs extra in that transaction, and commits it in
// the handles: it returns the version the write published. extra
// allocates only after the space the write laid out.
func (s *Store) save(eng *engine.Engine, net *darknet.Network, m *Model, fresh, publish bool, opts []PublishOption, extra func() error) (uint64, error) {
	w, err := s.prepare(eng, net, m, fresh, publish, opts)
	if err != nil {
		return 0, err
	}
	// Begin's fence 1 orders the payload write-backs before the flip:
	// the store never names a frame whose bytes are not durable.
	err = s.update(func(hdr int) error {
		if err := w.flip(s.rom, hdr); err != nil || extra == nil {
			return err
		}
		return extra()
	})
	if err != nil {
		return 0, err
	}
	r := ref{frame: w.frame, gen: w.gen, iter: w.iter}
	s.mu.Lock()
	s.frames = w.frames
	for len(s.pins) < len(s.frames) {
		s.pins = append(s.pins, 0)
	}
	switch {
	case w.mirror != nil:
		s.mirror = r
	case w.fresh:
		s.topGen = w.gen
	}
	if w.version != 0 {
		s.latest, s.pub = w.version, r
	}
	if m := w.mirror; m != nil {
		m.eng, m.region, m.gen, m.iter = w.eng, s.frames[w.frame].fp32, w.gen, w.iter
		m.lastSeal.Store(w.aes.Load())
	}
	s.mu.Unlock()
	if w.fresh {
		mMirrorOut.Inc()
		sealedBytes, _ := payloadCounters(w.net)
		sealedBytes.Add(float64(w.sealed))
	}
	mQuantSealedBytes.Add(float64(w.qsealed))
	mSealSeconds.Add(float64(w.aes.Load()) / 1e9)
	return w.version, nil
}

// Pin is a reader's hold on one published version: while held, no
// save writes the version's frame.
type Pin struct {
	s        *Store
	ref      ref
	version  uint64
	released bool
	mu       sync.Mutex
}

// Pin pins the latest published version and returns the hold. Release
// it when the restore is done.
func (s *Store) Pin() (*Pin, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == 0 {
		return nil, ErrNoPublished
	}
	s.pins[s.pub.frame]++
	return &Pin{s: s, ref: s.pub, version: s.latest}, nil
}

// Version returns the pinned version number.
func (pin *Pin) Version() uint64 { return pin.version }

// live reports whether the pin is still held.
func (pin *Pin) live() bool {
	pin.mu.Lock()
	defer pin.mu.Unlock()
	return !pin.released
}

// Open returns a Model handle over the pinned snapshot at prec — the
// fp32 snapshot, or at darknet.Int8 its quantized variant, which
// MirrorIn and MirrorInRange restore into a darknet.QuantizeNetwork
// clone — decrypting with the reader's own engine (each replica enclave
// holds its own engine instance over the provisioned data key). The
// first open of a frame reads its layer table; the handle binds the
// version's generation, so a forged reference fails authentication. PM
// access through the handle must be serialized by the caller like any
// other romulus use.
func (pin *Pin) Open(eng *engine.Engine, prec darknet.Precision, opts ...Option) (*Model, error) {
	if !pin.live() {
		return nil, ErrPinReleased
	}
	s := pin.s
	s.mu.Lock()
	f := &s.frames[pin.ref.frame]
	r, err := &f.fp32, error(nil)
	if prec == darknet.Int8 {
		r = &f.int8
		if r.off == 0 || f.int8Gen != pin.ref.gen {
			err = ErrNoQuant
		}
	}
	if err == nil {
		err = r.load(s.rom)
	}
	reg := *r
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.model(eng, reg, pin.ref, false, opts), nil
}

// HasQuant reports whether the pinned version carries a quantized
// (int8) snapshot variant.
func (pin *Pin) HasQuant() bool {
	if !pin.live() {
		return false
	}
	pin.s.mu.Lock()
	defer pin.s.mu.Unlock()
	f := &pin.s.frames[pin.ref.frame]
	return f.int8.off != 0 && f.int8Gen == pin.ref.gen
}

// Release drops the hold, allowing the frame to be written once no
// other hold or name keeps it. Release is idempotent.
func (pin *Pin) Release() {
	pin.mu.Lock()
	if pin.released {
		pin.mu.Unlock()
		return
	}
	pin.released = true
	pin.mu.Unlock()
	pin.s.mu.Lock()
	pin.s.pins[pin.ref.frame]--
	pin.s.mu.Unlock()
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
	vals := []uint64{uint64(len(l.Plan)), uint64(len(l.Hosts))}
	for _, r := range l.Plan {
		vals = append(vals, uint64(r.From), uint64(r.To))
	}
	for _, row := range l.Hosts {
		for _, h := range row {
			vals = append(vals, uint64(h))
		}
	}
	return words(vals...)
}

// layoutRegion reads the layout region's (offset, capacity) pair from
// the header, 0, 0 when no layout is recorded, and fails when the pair
// names anything but a region inside the device.
func (s *Store) layoutRegion() (off, capBytes int, err error) {
	if s.hdrOff == 0 {
		return 0, 0, nil
	}
	var hdr [16]byte
	if err := s.rom.Load(s.hdrOff+hdrLayout, hdr[:]); err != nil {
		return 0, 0, err
	}
	o, c := binary.LittleEndian.Uint64(hdr[:8]), binary.LittleEndian.Uint64(hdr[8:])
	if o == 0 {
		return 0, 0, nil
	}
	region := uint64(s.rom.RegionSize())
	if o > region || c < layoutCounts || c > region-o {
		return 0, 0, fmt.Errorf("%w: layout region at %d, capacity %d", ErrCorrupt, o, c)
	}
	return int(o), int(c), nil
}

// RecordLayout persists the serving layout in one durable transaction,
// so a shard group or fleet re-created after a crash restores exactly
// the split and placement the previous incarnation served with — the
// plan and its hosts always from the same write. The recorded region is
// rewritten in place when the layout fits it; a larger layout takes a
// fresh region (the old one is abandoned to the bump allocator, as
// Romulus has no free). Recording the layout already on record writes
// nothing. The caller serializes PM access, as with every other romulus
// use.
func (s *Store) RecordLayout(l Layout) error {
	if len(l.Plan) == 0 {
		return errors.New("mirror: empty serving layout")
	}
	for g, row := range l.Hosts {
		if len(row) != len(l.Plan) {
			return fmt.Errorf("mirror: layout group %d places %d of %d ranges", g, len(row), len(l.Plan))
		}
	}
	if cur, err := s.Layout(); err == nil && cur.equal(l) {
		return nil
	}
	buf := l.encode()
	off, capBytes, err := s.layoutRegion()
	if err != nil || len(buf) > capBytes {
		off = 0 // corrupt or outgrown: take a fresh region
	}
	return s.update(func(hdr int) error {
		if off == 0 {
			region, err := s.rom.Alloc(len(buf))
			if err != nil {
				return err
			}
			off = region
			if err := s.rom.Store(hdr+hdrLayout, words(uint64(region), uint64(len(buf)))); err != nil {
				return err
			}
		}
		return s.rom.Store(off, buf)
	})
}

// Layout reads the recorded serving layout, the zero Layout when none
// has been recorded. The region is untrusted PM: every count is bounded
// by what the recorded region can hold — itself bounded by the device —
// before anything is allocated, and every host row has len(Plan)
// entries. Range and host values are returned as recorded; callers
// check them against the model and the fleet. The caller serializes PM
// access.
func (s *Store) Layout() (Layout, error) {
	off, capBytes, err := s.layoutRegion()
	if err != nil || off == 0 {
		return Layout{}, err
	}
	var counts [layoutCounts]byte
	if err := s.rom.Load(off, counts[:]); err != nil {
		return Layout{}, err
	}
	ranges, groups := binary.LittleEndian.Uint64(counts[:8]), binary.LittleEndian.Uint64(counts[8:])
	room := uint64(capBytes-layoutCounts) / 8
	if ranges == 0 || ranges > room/2 || groups > (room-2*ranges)/ranges {
		return Layout{}, fmt.Errorf("%w: layout of %d ranges x %d groups in a %d-byte region", ErrCorrupt, ranges, groups, capBytes)
	}
	n, g := int(ranges), int(groups)
	vals := make([]int, 2*n+g*n)
	for i := range vals {
		v, err := s.rom.LoadUint64(off + layoutCounts + 8*i)
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
