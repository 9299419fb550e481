// Package mirror implements Plinius' mirroring module (paper §IV,
// Algorithm 3): it creates and maintains an encrypted mirror copy of the
// enclave ML model in persistent memory and keeps encrypted,
// byte-addressable training data in PM (data.go).
//
// The persistent model is a header and a linked list of layer nodes in
// the Romulus logged heap, each node recording where the sealed
// (AES-GCM: IV ‖ ciphertext ‖ MAC) image of every parameter buffer of
// the corresponding enclave layer lies, with 28 bytes of metadata per
// sealed segment. A buffer of up to 1 MiB is one segment — five per
// convolutional layer, hence the paper's 140 B/layer encryption
// metadata — and a larger one is sealed as several (see segmentBytes).
//
// The sealed buffers live in a Romulus payload extent, outside the twin
// copy, whose two halves are two shadow slots: each save seals every
// segment straight into the half the header does not name, on every
// core, one PM write per sealed byte, and then one small durable
// transaction flips the header's {iteration, generation, half}. So a
// crash at any point leaves either the previous or the new mirror
// intact, and the previous one stays readable in PM: every segment's
// MAC binds the generation it was sealed under.
//
// The same layout and codec carry the int8 serving variant of a
// published snapshot (publish.go): mirrored from a quantized network
// (darknet.QuantizeNetwork), a layer node holds the int8 weight codes,
// their fp32 scale as a one-float buffer, and the layer's remaining
// fp32 vectors — about a quarter of the fp32 payload for a
// weight-dominated model.
package mirror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/obs"
	"plinius/internal/par"
	"plinius/internal/romulus"
)

// Process-wide mirror counters: every mirror_out/mirror_in in the
// process, with the AES time each spent — the paper's Fig. 7/8 cost
// split, live. The per-Model LastSeal/LastOpenDuration accessors keep
// their last-operation semantics; these accumulate.
var (
	mMirrorOut     = obs.Default().Counter("mirror_out_total", "mirror_out durable save transactions.")
	mMirrorIn      = obs.Default().Counter("mirror_in_total", "mirror_in (full or range) restores.")
	mSealSeconds   = obs.Default().Counter("mirror_seal_seconds_total", "Seconds of AES-GCM sealing inside mirror_out (summed across workers).")
	mOpenSeconds   = obs.Default().Counter("mirror_open_seconds_total", "Seconds of AES-GCM opening inside mirror_in (summed across workers).")
	mMirroredBytes = obs.Default().Counter("mirror_sealed_payload_bytes_total", "Sealed payload bytes written by mirror_out.")
	mRestoredBytes = obs.Default().Counter("mirror_restored_payload_bytes_total", "Sealed payload bytes read back by mirror_in.")

	// The int8 twins of the payload counters: a mirror_out or mirror_in
	// of a quantized snapshot counts its bytes here instead.
	mQuantSealedBytes = obs.Default().Counter("mirror_quant_sealed_payload_bytes_total",
		"Sealed payload bytes written for quantized (int8) snapshot variants.")
	mQuantRestoredBytes = obs.Default().Counter("mirror_quant_restored_payload_bytes_total",
		"Sealed payload bytes read back by quantized (int8) snapshot restores.")
)

// Root slots used by Plinius in the Romulus root table.
const (
	RootModel     = 0
	RootData      = 1
	RootPublished = 2
	RootRotation  = 3
)

// Persistent layout offsets (all values little-endian uint64). Header
// and layer nodes are one contiguous region of the logged heap; the
// buffers lie back to back in payload half `half` of the payload
// extent [payOff, payOff+paySize):
//
//	model header: iter | gen | half | numLayers | headOff | payOff | paySize
//	layer node  : nextOff | numBufs | (bufOff, sealedLen) x numBufs
//	buffer      : segment 0 | ... | segment k-1, each IV ‖ ciphertext ‖ MAC
const (
	modelHdrIter = 0
	modelHdrGen  = 8
	modelHdrHalf = 16
	modelHdrNumL = 24
	modelHdrHead = 32
	modelHdrPay  = 40
	modelHdrSize = 56
	nodeNext     = 0
	nodeNumBufs  = 8
	nodeBufTable = 16
	nodeBufEntry = 16 // offset(8) + sealedLen(8)
)

// Errors returned by the mirroring module.
var (
	ErrNoMirror      = errors.New("mirror: no persistent model in PM")
	ErrShapeMismatch = errors.New("mirror: persistent model does not match network architecture")
	ErrCorrupt       = errors.New("mirror: persistent model is corrupt")
)

// buffer is one persistent parameter buffer: a run of fp32 elements
// (f), or the int8 weight codes (q) of a quantized layer.
type buffer struct {
	f []float32
	q []int8
}

// size returns the buffer's plaintext bytes: four per fp32 element, one
// per int8 code.
func (b buffer) size() int { return 4*len(b.f) + len(b.q) }

// part returns part s of the k equal element ranges b splits into.
func (b buffer) part(s, k int) buffer {
	if b.q != nil {
		return buffer{q: b.q[s*len(b.q)/k : (s+1)*len(b.q)/k]}
	}
	return buffer{f: b.f[s*len(b.f)/k : (s+1)*len(b.f)/k]}
}

// codes views the int8 codes as the bytes they are sealed as.
func (b buffer) codes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.q))), len(b.q))
}

type bufRef struct {
	off       int
	sealedLen int
}

type layerNode struct {
	off  int
	bufs []bufRef
}

// extent is the payload extent [off, off+size) of a model region.
type extent struct{ off, size int }

// Model is a handle to the encrypted mirror copy of a network in PM.
type Model struct {
	rom     *romulus.Romulus
	eng     *engine.Engine
	encl    *enclave.Enclave
	headOff int
	layers  []layerNode
	pay     extent
	// gen is the generation the payload half half holds. A fresh model
	// is generation 0 in half 1, so its first save seals generation 1
	// into half 0.
	gen  uint64
	half int
	// rootPending marks a model AllocModel planned but no MirrorOut has
	// written yet: the first MirrorOut allocates and roots it.
	rootPending bool

	// lastSeal and lastOpen record the time spent in AES-GCM during
	// the most recent MirrorOut/MirrorIn, so experiment harnesses can
	// report the paper's encrypt/write and read/decrypt breakdowns
	// (Table Ia). With the parallel mirroring path the total is
	// aggregate AES CPU time summed across workers (it can exceed the
	// operation's wall-clock time). Stored as nanoseconds and updated
	// atomically so the accessors are race-safe against an in-flight
	// mirror operation.
	lastSeal atomic.Int64
	lastOpen atomic.Int64
}

// mirrorParallelBytes is the sealed bytes a mirror operation hands to
// one par.For range: a smaller mirror stays on the caller, where the
// hand-off would cost more than the AES it spreads.
const mirrorParallelBytes = 256 << 10

// taskGrain returns the par.For grain of a mirror operation over tasks
// segments holding total sealed bytes: the segments that carry
// mirrorParallelBytes, on average.
func taskGrain(tasks, total int) int { return max(1, tasks*mirrorParallelBytes/max(total, 1)) }

// Segmented sealing. A parameter buffer of n plaintext bytes — four per
// fp32 element, one per int8 code — is sealed as k = ceil(n /
// segmentBytes) segments (at least one): its elements split evenly into
// k parts, each sealed as its own IV ‖ ciphertext ‖ MAC and laid out
// back to back at the buffer's offset, so the layer table records
// n + 28k bytes. Each segment is one task of the seal/open fan-out, so
// one large layer — fp32 or int8 — seals and opens on every core. k is
// not stored: the recorded length strictly increases with n, so it
// names one n and one k (segmentsIn).
//
// Every segment's MAC also binds (node index, buffer index, segment
// index, k, generation), so a segment swapped within its buffer, moved
// to another buffer or node, cut from a buffer of a different k, or
// copied from an older generation — the other payload half at the same
// offset — fails authentication. In an int8 snapshot that covers the
// one-float scales, which every quantized layer has.
//
// Data rows and the SSD checkpoint keep one segment per buffer.
const segmentBytes = 1 << 20

// segmentsFor returns the segment count MirrorOut writes for a buffer
// of n plaintext bytes.
func segmentsFor(n int) int {
	return max(1, (n+segmentBytes-1)/segmentBytes)
}

// segmentedLen returns the sealed length of n plaintext bytes in k
// segments.
func segmentedLen(n, k int) int { return n + k*engine.Overhead }

// sealedLenOf returns the sealed length MirrorOut writes for a buffer
// of n plaintext bytes. A layer-table entry comes from untrusted PM, so
// its length must equal this before anything is sized from it.
func sealedLenOf(n int) int { return segmentedLen(n, segmentsFor(n)) }

// segmentsIn inverts sealedLenOf for the segment count: k segments
// record lengths in ((k-1)(segmentBytes+28), k(segmentBytes+28)].
func segmentsIn(sealedLen int) int {
	const per = segmentBytes + engine.Overhead
	return max(1, (sealedLen+per-1)/per)
}

// bufTask is one sealed segment of a mirror operation: segment seg of
// the k that hold buffer bi of layer node li.
type bufTask struct {
	li, bi, seg, k int
	b              buffer
	off            int
	sealedLen      int
	aad            [24]byte // li, bi, seg, k as little-endian uint32s, then the generation
}

// seal seals the segment into its frame dst.
func (t *bufTask) seal(eng *engine.Engine, dst []byte) error {
	if t.b.q != nil {
		return eng.SealInto(dst, t.b.codes(), t.aad[:])
	}
	return eng.SealFloatsInto(dst, t.b.f, t.aad[:])
}

// open opens sealed into the segment's elements.
func (t *bufTask) open(eng *engine.Engine, sealed []byte) error {
	if t.b.q != nil {
		return eng.OpenAAD(t.b.codes(), sealed, t.aad[:])
	}
	return eng.OpenFloatsAAD(t.b.f, sealed, t.aad[:])
}

// errorf wraps a seal or open failure with the segment's place.
func (t *bufTask) errorf(op string, err error) error {
	return fmt.Errorf("%s layer %d buffer %d segment %d/%d: %w", op, t.li, t.bi, t.seg, t.k, err)
}

// collectTasks flattens the (layer, buffer, segment) triples of a
// restore or mirror-out of generation gen into a task list, and returns
// it with the sealed bytes it covers. The shape has been checked
// (matchesFrom), so every recorded length is sealedLenOf its buffer.
func (m *Model) collectTasks(bufLayers [][]buffer, from int, gen uint64) ([]bufTask, int) {
	count := 0
	for _, bufs := range bufLayers {
		for _, b := range bufs {
			count += segmentsFor(b.size())
		}
	}
	tasks := make([]bufTask, 0, count)
	total := 0
	for li, bufs := range bufLayers {
		node := m.layers[from+li]
		for bi, b := range bufs {
			k := segmentsFor(b.size())
			off := node.bufs[bi].off
			for s := 0; s < k; s++ {
				seg := b.part(s, k)
				t := bufTask{li: from + li, bi: bi, seg: s, k: k, b: seg, off: off,
					sealedLen: segmentedLen(seg.size(), 1)}
				for i, v := range [...]int{from + li, bi, s, k} {
					binary.LittleEndian.PutUint32(t.aad[4*i:], uint32(v))
				}
				binary.LittleEndian.PutUint64(t.aad[16:], gen)
				tasks = append(tasks, t)
				off += t.sealedLen
			}
			total += node.bufs[bi].sealedLen
		}
	}
	return tasks, total
}

// Option configures a Model handle.
type Option func(*Model)

// WithEnclave charges EPC paging costs for plaintext staged in enclave
// memory during mirror operations.
func WithEnclave(e *enclave.Enclave) Option {
	return func(m *Model) { m.encl = e }
}

// Exists reports whether a persistent model is rooted in the heap.
func Exists(rom *romulus.Romulus) bool {
	off, err := rom.Root(RootModel)
	return err == nil && off != 0
}

// AllocModel plans the persistent mirror of net (Algorithm 3,
// alloc_mirror_model) without writing PM: the first MirrorOut seals the
// payload into the free space below the payload cursor and then
// allocates the region and roots it in one durable transaction. Until
// that commits, a crash leaves no mirror and nothing allocated, and
// recovery trains from scratch (Algorithm 2, lines 7-12). It fails when
// the heap has no room for the model.
func AllocModel(rom *romulus.Romulus, eng *engine.Engine, net *darknet.Network, opts ...Option) (*Model, error) {
	m := &Model{rom: rom, eng: eng, half: 1, rootPending: true}
	for _, opt := range opts {
		opt(m)
	}
	if err := m.plan(collectBuffers(net)); err != nil {
		return nil, fmt.Errorf("mirror alloc: %w", err)
	}
	return m, nil
}

// plan lays m out for bufLayers at the heap's cursors as they stand:
// header and layer table where the next Alloc puts them, the payload
// where the next AllocPayload does.
func (m *Model) plan(bufLayers [][]buffer) error {
	meta, pay := metaSize(bufLayers), payloadSize(bufLayers)
	used, low := m.rom.Used(), m.rom.PayloadCursor()
	if meta+pay > low-used {
		return fmt.Errorf("%w: a %d-byte model region in %d free bytes", romulus.ErrOutOfSpace, meta+pay, low-used)
	}
	m.headOff, m.pay = used, extent{off: low - pay, size: pay}
	m.layers = planRegion(bufLayers, m.headOff, m.pay.off)
	return nil
}

// regionAlign applies the Romulus bump allocator's alignment, so
// metaSize and payloadSize predict exactly what a region consumes.
func regionAlign(n int) int {
	return (n + romulus.AllocAlign - 1) / romulus.AllocAlign * romulus.AllocAlign
}

// nodeBytes returns the logged-heap bytes of a layer node of n buffers.
func nodeBytes(n int) int { return regionAlign(nodeBufTable + nodeBufEntry*n) }

// metaSize returns the logged-heap bytes of a model region for the
// given buffers: its header and layer table.
func metaSize(bufLayers [][]buffer) int {
	total := regionAlign(modelHdrSize)
	for _, bufs := range bufLayers {
		total += nodeBytes(len(bufs))
	}
	return total
}

// payloadSize returns the payload extent bytes of a model region for
// the given buffers, per half.
func payloadSize(bufLayers [][]buffer) int {
	total := 0
	for _, bufs := range bufLayers {
		for _, b := range bufs {
			total += regionAlign(sealedLenOf(b.size()))
		}
	}
	return (total + romulus.PayloadAlign - 1) / romulus.PayloadAlign * romulus.PayloadAlign
}

// planRegion lays out a model region for bufLayers: the header at meta
// and the layer nodes right after it, the buffers from payload offset
// pay on, both in layer and buffer order.
func planRegion(bufLayers [][]buffer, meta, pay int) []layerNode {
	next := meta + regionAlign(modelHdrSize)
	layers := make([]layerNode, 0, len(bufLayers))
	for _, bufs := range bufLayers {
		node := layerNode{off: next, bufs: make([]bufRef, len(bufs))}
		next += nodeBytes(len(bufs))
		for bi, b := range bufs {
			n := sealedLenOf(b.size())
			node.bufs[bi] = bufRef{off: pay, sealedLen: n}
			pay += regionAlign(n)
		}
		layers = append(layers, node)
	}
	return layers
}

// metaSizeOf returns the logged-heap bytes of the header and layer
// table planRegion laid out as layers.
func metaSizeOf(layers []layerNode) int {
	total := regionAlign(modelHdrSize)
	for _, node := range layers {
		total += nodeBytes(len(node.bufs))
	}
	return total
}

// storeTable writes m's header, naming iteration iter of generation gen
// in payload half half, and its layer table, as laid out by
// planRegion, in the open transaction: one store of the whole
// metadata.
func (m *Model) storeTable(iter, gen uint64, half int) error {
	buf := make([]byte, metaSizeOf(m.layers))
	put := func(at int, v uint64) { binary.LittleEndian.PutUint64(buf[at-m.headOff:], v) }
	put(m.headOff+modelHdrIter, iter)
	put(m.headOff+modelHdrGen, gen)
	put(m.headOff+modelHdrHalf, uint64(half))
	put(m.headOff+modelHdrNumL, uint64(len(m.layers)))
	if len(m.layers) > 0 {
		put(m.headOff+modelHdrHead, uint64(m.layers[0].off))
	}
	put(m.headOff+modelHdrPay, uint64(m.pay.off))
	put(m.headOff+modelHdrPay+8, uint64(m.pay.size))
	for i, node := range m.layers {
		if i+1 < len(m.layers) {
			put(node.off+nodeNext, uint64(m.layers[i+1].off))
		}
		put(node.off+nodeNumBufs, uint64(len(node.bufs)))
		for bi, b := range node.bufs {
			entry := node.off + nodeBufTable + nodeBufEntry*bi
			put(entry, uint64(b.off))
			put(entry+8, uint64(b.sealedLen))
		}
	}
	return m.rom.Store(m.headOff, buf)
}

// OpenModel attaches to an existing persistent model (after a restart or
// crash) by walking the linked list from the root.
func OpenModel(rom *romulus.Romulus, eng *engine.Engine, opts ...Option) (*Model, error) {
	hdr, err := rom.Root(RootModel)
	if err != nil {
		return nil, err
	}
	if hdr == 0 {
		return nil, ErrNoMirror
	}
	return openModelAt(rom, eng, hdr, opts...)
}

// openModelAt attaches to the persistent model whose header is at hdr,
// walking its layer list and validating the node structure. The walk
// is bounded by what PM holds: every layer writer lays node after node
// out upward, so a next pointer must lie past its node's table, and no
// list can name more nodes than the region has room for. Nothing is
// sized from the untrusted layer count; nodes are kept as they are read.
// The header must name payload half 0 or 1 and a payload extent among
// the heap's extents, and every buffer must lie inside that extent.
func openModelAt(rom *romulus.Romulus, eng *engine.Engine, hdr int, opts ...Option) (*Model, error) {
	m := &Model{rom: rom, eng: eng, headOff: hdr}
	for _, opt := range opts {
		opt(m)
	}
	var h [modelHdrSize / 8]uint64
	for i := range h {
		var err error
		if h[i], err = rom.LoadUint64(hdr + 8*i); err != nil {
			return nil, err
		}
	}
	m.gen = h[modelHdrGen/8]
	numL, next := h[modelHdrNumL/8], h[modelHdrHead/8]
	payOff, paySize := h[modelHdrPay/8], h[modelHdrPay/8+1]
	top, half := uint64(rom.RegionSize()), h[modelHdrHalf/8]
	if half > 1 {
		return nil, fmt.Errorf("%w: payload half %d", ErrCorrupt, half)
	}
	m.half = int(half)
	if payOff < uint64(rom.PayloadCursor()) || payOff > top || paySize > top-payOff {
		return nil, fmt.Errorf("%w: payload extent of %d bytes at %d", ErrCorrupt, paySize, payOff)
	}
	m.pay = extent{off: int(payOff), size: int(paySize)}
	if numL > uint64(rom.RegionSize()/(nodeBufTable+nodeBufEntry)) {
		return nil, fmt.Errorf("%w: %d layers", ErrCorrupt, numL)
	}
	for i := uint64(0); i < numL; i++ {
		if next == 0 {
			return nil, fmt.Errorf("%w: list ends at layer %d of %d", ErrCorrupt, i, numL)
		}
		nodeOff := int(next)
		numBufs, err := rom.LoadUint64(nodeOff + nodeNumBufs)
		if err != nil {
			return nil, err
		}
		if numBufs == 0 || numBufs > 64 {
			return nil, fmt.Errorf("%w: layer %d has %d buffers", ErrCorrupt, i, numBufs)
		}
		node := layerNode{off: nodeOff, bufs: make([]bufRef, 0, numBufs)}
		for b := uint64(0); b < numBufs; b++ {
			entry := nodeOff + nodeBufTable + nodeBufEntry*int(b)
			bufOff, err := rom.LoadUint64(entry)
			if err != nil {
				return nil, err
			}
			sealedLen, err := rom.LoadUint64(entry + 8)
			if err != nil {
				return nil, err
			}
			if bufOff < payOff || bufOff-payOff > paySize || sealedLen > paySize-(bufOff-payOff) {
				return nil, fmt.Errorf("%w: layer %d buffer %d of %d bytes at %d, outside the payload extent", ErrCorrupt, i, b, sealedLen, bufOff)
			}
			node.bufs = append(node.bufs, bufRef{off: int(bufOff), sealedLen: int(sealedLen)})
		}
		m.layers = append(m.layers, node)
		if next, err = rom.LoadUint64(nodeOff + nodeNext); err != nil {
			return nil, err
		}
		if next != 0 && next < uint64(nodeOff+nodeBufTable+nodeBufEntry*int(numBufs)) {
			return nil, fmt.Errorf("%w: layer %d links back to %d", ErrCorrupt, i, next)
		}
	}
	return m, nil
}

// collectBuffers returns the persistent buffers of every layer that
// has parameters: its fp32 parameter buffers (conv: 5, connected: 2;
// pooling/softmax: none), or for a quantized layer its int8 weight
// codes, their one-float scale and its fp32 vectors.
//
// Every layer's list is a view into one flat slice with room for six
// buffers per layer (a quantized conv's count), so a save or restore
// allocates no list per layer; a view taken before the slice regrows
// still holds its buffers.
func collectBuffers(net *darknet.Network) [][]buffer {
	out := make([][]buffer, 0, len(net.Layers))
	flat := make([]buffer, 0, 6*len(net.Layers))
	for _, l := range net.Layers {
		params := l.Params()
		if len(params) == 0 {
			continue
		}
		start := len(flat)
		if ql, ok := l.(darknet.QuantWeightLayer); ok {
			flat = append(flat, buffer{q: ql.QuantWeights()}, buffer{f: ql.WeightScale()})
		}
		for _, p := range params {
			flat = append(flat, buffer{f: p})
		}
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out
}

// matches checks the persistent layout against the network architecture.
func (m *Model) matches(bufLayers [][]buffer) error {
	if len(bufLayers) != len(m.layers) {
		return fmt.Errorf("%w: %d persistent layers, %d network layers",
			ErrShapeMismatch, len(m.layers), len(bufLayers))
	}
	return m.matchesFrom(bufLayers, 0)
}

// matchesFrom checks bufLayers against the persistent layer nodes
// starting at node index from — the shard-restore shape check, where
// bufLayers is one contiguous slice of the full model's layers.
func (m *Model) matchesFrom(bufLayers [][]buffer, from int) error {
	if from < 0 || from+len(bufLayers) > len(m.layers) {
		return fmt.Errorf("%w: layers [%d,%d) of %d persistent",
			ErrShapeMismatch, from, from+len(bufLayers), len(m.layers))
	}
	for li, bufs := range bufLayers {
		node := m.layers[from+li]
		if len(bufs) != len(node.bufs) {
			return fmt.Errorf("%w: layer %d has %d buffers, persistent %d",
				ErrShapeMismatch, from+li, len(bufs), len(node.bufs))
		}
		for bi, b := range bufs {
			if node.bufs[bi].sealedLen != sealedLenOf(b.size()) {
				return fmt.Errorf("%w: layer %d buffer %d of %d bytes recorded as %d sealed bytes",
					ErrShapeMismatch, from+li, bi, b.size(), node.bufs[bi].sealedLen)
			}
		}
	}
	return nil
}

// payloadCounters returns the payload byte counters an operation on net
// adds to: the int8 twins for a quantized snapshot.
func payloadCounters(net *darknet.Network) (sealed, restored *obs.Counter) {
	if darknet.IsQuantized(net) {
		return mQuantSealedBytes, mQuantRestoredBytes
	}
	return mMirroredBytes, mRestoredBytes
}

// checkScales rejects a restored int8 scale that is not finite and
// positive: every later forward pass multiplies by it.
func checkScales(bufLayers [][]buffer, from int) error {
	for li, bufs := range bufLayers {
		if bufs[0].q == nil {
			continue
		}
		if s := bufs[1].f[0]; !(s > 0) || math.IsInf(float64(s), 0) {
			return fmt.Errorf("%w: layer %d int8 scale %v", ErrCorrupt, from+li, s)
		}
	}
	return nil
}

// MirrorOut encrypts the enclave model's parameters and writes them as
// the persistent mirror's next generation, recording the iteration
// counter (Algorithm 3, mirror_out): the slot writer seals them into the
// payload half the mirror does not name, then one durable transaction
// flips the header to it. The first MirrorOut of an AllocModel handle
// lays the planned shape out afresh at the heap's cursors, and
// allocates and roots it in that transaction.
func (m *Model) MirrorOut(net *darknet.Network) error {
	w, err := m.writeOut(m.eng, net)
	if err != nil {
		return err
	}
	// Begin's fence 1 orders the payload write-backs above before the
	// flip: the header never names a half whose bytes are not durable.
	if err := m.rom.Update(w.flip); err != nil {
		return err
	}
	w.commit()
	return nil
}

// writeOut seals net's parameters under eng as m's next generation, into
// the payload half m does not name, and returns the write for the
// caller's transaction to flip in.
func (m *Model) writeOut(eng *engine.Engine, net *darknet.Network) (written, error) {
	bufLayers := collectBuffers(net)
	if err := m.matches(bufLayers); err != nil {
		return written{}, err
	}
	if m.rootPending {
		if err := m.plan(bufLayers); err != nil {
			return written{}, err
		}
	}
	return m.writeHalf(eng, net, bufLayers, 1-m.half, m.gen+1)
}

// written is a generation sealed into a payload half nothing references
// yet: flip references it in the caller's transaction, and commit
// records it in the handle once that transaction has committed.
type written struct {
	m     *Model
	eng   *engine.Engine
	net   *darknet.Network
	gen   uint64
	half  int
	total int
}

// flip points the header at iteration, generation and half of the
// write, in the open transaction: one 24-byte store. A model AllocModel
// planned is allocated and rooted instead.
func (w *written) flip() error {
	if w.m.rootPending {
		return w.m.allocRoot(uint64(w.net.Iteration), w.gen, w.half)
	}
	var buf [modelHdrNumL]byte
	binary.LittleEndian.PutUint64(buf[modelHdrIter:], uint64(w.net.Iteration))
	binary.LittleEndian.PutUint64(buf[modelHdrGen:], w.gen)
	binary.LittleEndian.PutUint64(buf[modelHdrHalf:], uint64(w.half))
	return w.m.rom.Store(w.m.headOff, buf[:])
}

// commit records the flipped half in the handle, which seals under the
// write's engine from now on, and adds the mirror-out to the
// process-wide counters.
func (w *written) commit() {
	w.m.eng, w.m.gen, w.m.half, w.m.rootPending = w.eng, w.gen, w.half, false
	mMirrorOut.Inc()
	mSealSeconds.Add(w.m.LastSealDuration().Seconds())
	sealedBytes, _ := payloadCounters(w.net)
	sealedBytes.Add(float64(w.total))
}

// allocRoot allocates the planned model — header and layer table in the
// logged heap, the payload extent the first save has already filled —
// writes its table naming iteration iter of generation gen in half
// half, and roots it, inside the open transaction.
func (m *Model) allocRoot(iter, gen uint64, half int) error {
	hdr, err := m.rom.Alloc(metaSizeOf(m.layers))
	if err != nil {
		return err
	}
	pay := m.pay.off
	if m.pay.size > 0 {
		if pay, err = m.rom.AllocPayload(m.pay.size); err != nil {
			return err
		}
	}
	if hdr != m.headOff || pay != m.pay.off {
		return fmt.Errorf("%w: planned region at %d / %d allocated at %d / %d", ErrCorrupt, m.headOff, m.pay.off, hdr, pay)
	}
	if err := m.storeTable(iter, gen, half); err != nil {
		return err
	}
	return m.rom.SetRoot(RootModel, hdr)
}

// writeHalf is the slot writer of MirrorOut and PublishOut. It seals
// every segment of bufLayers, the buffers of net, under eng and
// generation gen straight into its place in payload half half, which
// nothing references: each par.ForErr range fills its segments through
// romulus.FillPayload, one PM store and write-back per segment, with no
// staging copy and no ordering between ranges. It records the aggregate
// AES time for LastSealDuration, and returns the write for a
// transaction to flip in.
func (m *Model) writeHalf(eng *engine.Engine, net *darknet.Network, bufLayers [][]buffer, half int, gen uint64) (written, error) {
	m.lastSeal.Store(0)
	tasks, total := m.collectTasks(bufLayers, 0, gen)
	err := par.ForErr(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			t := &tasks[i]
			err := m.rom.FillPayload(half, t.off, t.sealedLen, func(dst []byte) error {
				sealStart := time.Now()
				err := t.seal(eng, dst)
				m.lastSeal.Add(int64(time.Since(sealStart)))
				if err != nil {
					return t.errorf("seal", err)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return written{m: m, eng: eng, net: net, gen: gen, half: half, total: total}, err
}

// MirrorIn reads the persistent mirror, decrypts it inside the enclave
// and installs the parameters and iteration counter into net
// (Algorithm 3, mirror_in). It returns the restored iteration.
func (m *Model) MirrorIn(net *darknet.Network) (int, error) {
	bufLayers := collectBuffers(net)
	if err := m.matches(bufLayers); err != nil {
		return 0, err
	}
	return m.mirrorInFrom(net, bufLayers, 0)
}

// MirrorInRange restores only the slice of the persistent model whose
// layer nodes start at index from — the shard-restore path: net is a
// shard sub-network whose parameter layers correspond to persistent
// nodes [from, from+n), and only that range's sealed buffers are read,
// decrypted and installed. The persisted iteration counter (shared by
// the whole snapshot) is installed into net and returned. An int8 shard
// restores its range of the int8 variant the same way.
func (m *Model) MirrorInRange(net *darknet.Network, from int) (int, error) {
	bufLayers := collectBuffers(net)
	if err := m.matchesFrom(bufLayers, from); err != nil {
		return 0, err
	}
	return m.mirrorInFrom(net, bufLayers, from)
}

// mirrorInFrom is the shared restore loop of MirrorIn and
// MirrorInRange; the shape has already been checked. The int8 scales
// are checked once every segment has opened.
//
// The per-segment work — boundary copy, in-enclave AES-GCM open
// straight from PM — runs on par.ForErr. Segments decrypt into
// disjoint parameter slices, views of disjoint PM ranges run outside
// the device lock, and the enclave CopyAcross/Touch accounting is
// mutex-protected, so the parallel restore charges exactly what the
// sequential one does.
func (m *Model) mirrorInFrom(net *darknet.Network, bufLayers [][]buffer, from int) (int, error) {
	iter, err := m.rom.LoadUint64(m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	m.lastOpen.Store(0)
	tasks, total := m.collectTasks(bufLayers, from, m.gen)
	err = par.ForErr(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := m.restore(&tasks[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := checkScales(bufLayers, from); err != nil {
		return 0, err
	}
	net.Iteration = int(iter)
	mMirrorIn.Inc()
	mOpenSeconds.Add(time.Duration(m.lastOpen.Load()).Seconds())
	_, restoredBytes := payloadCounters(net)
	restoredBytes.Add(float64(total))
	return int(iter), nil
}

// restore opens segment t of the current payload half into its buffer
// straight from PM: a Romulus payload view, the enclave's boundary
// charge, then the open. There is no staging copy: OpenAAD reads memory
// another party may write, loading each sealed byte once (the stdlib
// path, whose GCM loads them twice, stages in pooled engine scratch).
func (m *Model) restore(t *bufTask) error {
	return m.rom.ViewPayload(m.half, t.off, t.sealedLen, func(sealed []byte) error {
		if m.encl != nil {
			m.encl.CopyAcross(len(sealed))
		}
		openStart := time.Now()
		err := t.open(m.eng, sealed)
		m.lastOpen.Add(int64(time.Since(openStart)))
		if err != nil {
			return t.errorf("open", err)
		}
		return nil
	})
}

// Iteration reads the persisted iteration counter without touching the
// parameters.
func (m *Model) Iteration() (int, error) {
	iter, err := m.rom.LoadUint64(m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	return int(iter), nil
}

// MetadataBytes returns the encryption metadata footprint of the mirror:
// engine.Overhead (28 B) per sealed segment, i.e. the sealed payload
// bytes minus the plaintext parameter bytes — 140 B per conv layer whose buffers are
// each at most 1 MiB.
func (m *Model) MetadataBytes() int {
	total := 0
	for _, node := range m.layers {
		for _, b := range node.bufs {
			total += engine.Overhead * segmentsIn(b.sealedLen)
		}
	}
	return total
}

// NumLayers returns the number of persistent layer nodes.
func (m *Model) NumLayers() int { return len(m.layers) }

// LastSealDuration returns the aggregate AES CPU time of the most
// recent MirrorOut (summed across seal workers, so it can exceed the
// operation's wall-clock time). Safe to call concurrently with mirror
// operations.
func (m *Model) LastSealDuration() time.Duration { return time.Duration(m.lastSeal.Load()) }

// LastOpenDuration returns the aggregate AES CPU time of the most
// recent MirrorIn (summed across restore workers). Safe to call
// concurrently with mirror operations.
func (m *Model) LastOpenDuration() time.Duration { return time.Duration(m.lastOpen.Load()) }
