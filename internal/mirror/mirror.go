// Package mirror implements Plinius' mirroring module (paper §IV,
// Algorithm 3): it keeps an encrypted copy of the enclave ML model in
// persistent memory, publishes immutable versions of it for serving,
// and keeps encrypted, byte-addressable training data in PM (data.go).
//
// Every sealed model lives in one snapshot store (store.go): a
// persistent table of frames. A frame is one half of a Romulus payload
// extent, outside the twin copy, together with its layer table in the
// logged heap — a header naming the half and the extent, and a node per
// parameter layer recording where the sealed (AES-GCM: IV ‖ ciphertext
// ‖ MAC) image of each of the layer's buffers lies, with 28 bytes of
// metadata per sealed segment. A buffer of up to 1 MiB is one segment —
// five per convolutional layer, hence the paper's 140 B/layer
// encryption metadata — and a larger one is sealed as several (see
// segmentBytes).
//
// A save seals every segment straight into a free frame, on every core,
// one PM write per sealed byte, and then one small durable transaction
// names it: as the training mirror's latest generation, as the latest
// published version, or both. A frame is free when it is neither the
// mirror's latest, nor the latest version's, nor pinned by a reader, so
// a crash at any point leaves every named frame intact, and a version
// published from the mirror's latest generation is a reference to its
// frame, not a second copy. Every segment's MAC binds the generation it
// was sealed under, and generations never repeat within a store.
//
// A frame may also carry the int8 serving variant of its generation, in
// a second region of the same layout: mirrored from a quantized network
// (darknet.QuantizeNetwork), a layer node holds the int8 weight codes,
// their fp32 scale as a one-float buffer, and the layer's remaining fp32
// vectors — about a quarter of the fp32 payload for a weight-dominated
// model.
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
	RootStore    = 0
	RootData     = 1
	RootRotation = 3
)

// Layer table layout (all values little-endian uint64). A frame's
// header and layer nodes are one contiguous region of the logged heap;
// the buffers lie back to back in payload half `half` of the payload
// extent [payOff, payOff+paySize):
//
//	frame header: half | numLayers | headOff | payOff | paySize
//	layer node  : nextOff | numBufs | (bufOff, sealedLen) x numBufs
//	buffer      : segment 0 | ... | segment k-1, each IV ‖ ciphertext ‖ MAC
const (
	frameHdrHalf = 0
	frameHdrNumL = 8
	frameHdrHead = 16
	frameHdrPay  = 24
	frameHdrSize = 40
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

// extent is the payload extent [off, off+size) of a frame.
type extent struct{ off, size int }

// region is a frame's layout: its layer table at [off, off+size) in the
// logged heap, naming payload half half of extent pay. loaded marks a
// table read from PM or laid out by this process.
type region struct {
	off, size int
	half      int
	pay       extent
	layers    []layerNode
	loaded    bool
}

// Model is a handle on one sealed generation of a network in PM: the
// store's training mirror, which MirrorOut advances, or a published
// version a Pin opened.
type Model struct {
	rom  *romulus.Romulus
	eng  *engine.Engine
	encl *enclave.Enclave
	// st is the store whose training mirror this is; nil for a pinned
	// version, which never changes.
	st *Store
	region
	// gen and iter are the generation the region's half holds and the
	// training iteration it is of. A mirror no MirrorOut has rooted yet
	// has the planned shape and generation 0.
	gen, iter uint64

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
// copied from another generation — any other frame — fails
// authentication. In an int8 snapshot that covers the one-float scales,
// which every quantized layer has.
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

// open opens sealed into dst: the segment's elements, or a buffer of
// their kind and length.
func (t *bufTask) open(eng *engine.Engine, sealed []byte, dst buffer) error {
	if dst.q != nil {
		return eng.OpenAAD(dst.codes(), sealed, t.aad[:])
	}
	return eng.OpenFloatsAAD(dst.f, sealed, t.aad[:])
}

// errorf wraps a seal or open failure with the segment's place.
func (t *bufTask) errorf(op string, err error) error {
	return fmt.Errorf("%s layer %d buffer %d segment %d/%d: %w", op, t.li, t.bi, t.seg, t.k, err)
}

// collectTasks flattens the (layer, buffer, segment) triples of a
// restore or seal of generation gen into a task list, and returns it
// with the sealed bytes it covers. The shape has been checked
// (matchesFrom), so every recorded length is sealedLenOf its buffer.
func (r *region) collectTasks(bufLayers [][]buffer, from int, gen uint64) ([]bufTask, int) {
	count := 0
	for _, bufs := range bufLayers {
		for _, b := range bufs {
			count += segmentsFor(b.size())
		}
	}
	tasks := make([]bufTask, 0, count)
	total := 0
	for li, bufs := range bufLayers {
		node := r.layers[from+li]
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

// regionAlign applies the Romulus bump allocator's alignment, so
// metaSize and payloadSize predict exactly what a region consumes.
func regionAlign(n int) int {
	return (n + romulus.AllocAlign - 1) / romulus.AllocAlign * romulus.AllocAlign
}

// nodeBytes returns the logged-heap bytes of a layer node of n buffers.
func nodeBytes(n int) int { return regionAlign(nodeBufTable + nodeBufEntry*n) }

// metaSize returns the logged-heap bytes of a layer table for the given
// buffers: its header and layer nodes.
func metaSize(bufLayers [][]buffer) int {
	total := regionAlign(frameHdrSize)
	for _, bufs := range bufLayers {
		total += nodeBytes(len(bufs))
	}
	return total
}

// payloadSize returns the payload extent bytes of a frame for the given
// buffers, per half.
func payloadSize(bufLayers [][]buffer) int {
	total := 0
	for _, bufs := range bufLayers {
		for _, b := range bufs {
			total += regionAlign(sealedLenOf(b.size()))
		}
	}
	return (total + romulus.PayloadAlign - 1) / romulus.PayloadAlign * romulus.PayloadAlign
}

// planRegion lays out a region for bufLayers: the header at meta and
// the layer nodes right after it, the buffers from offset pay.off of
// the extent on, both in layer and buffer order.
func planRegion(bufLayers [][]buffer, meta, half int, pay extent) region {
	r := region{off: meta, size: metaSize(bufLayers), half: half, pay: pay, loaded: true}
	next, at := meta+regionAlign(frameHdrSize), pay.off
	r.layers = make([]layerNode, 0, len(bufLayers))
	for _, bufs := range bufLayers {
		node := layerNode{off: next, bufs: make([]bufRef, len(bufs))}
		next += nodeBytes(len(bufs))
		for bi, b := range bufs {
			n := sealedLenOf(b.size())
			node.bufs[bi] = bufRef{off: at, sealedLen: n}
			at += regionAlign(n)
		}
		r.layers = append(r.layers, node)
	}
	return r
}

// encode returns the bytes of r's layer table, as planRegion laid it
// out.
func (r *region) encode() []byte {
	buf := make([]byte, r.size)
	put := func(at int, v uint64) { binary.LittleEndian.PutUint64(buf[at-r.off:], v) }
	put(r.off+frameHdrHalf, uint64(r.half))
	put(r.off+frameHdrNumL, uint64(len(r.layers)))
	if len(r.layers) > 0 {
		put(r.off+frameHdrHead, uint64(r.layers[0].off))
	}
	put(r.off+frameHdrPay, uint64(r.pay.off))
	put(r.off+frameHdrPay+8, uint64(r.pay.size))
	for i, node := range r.layers {
		if i+1 < len(r.layers) {
			put(node.off+nodeNext, uint64(r.layers[i+1].off))
		}
		put(node.off+nodeNumBufs, uint64(len(node.bufs)))
		for bi, b := range node.bufs {
			entry := node.off + nodeBufTable + nodeBufEntry*bi
			put(entry, uint64(b.off))
			put(entry+8, uint64(b.sealedLen))
		}
	}
	return buf
}

// load reads r's layer table into enclave memory with one Load of the
// recorded [off, off+size), then walks it there. The table is untrusted
// PM: it must lie in the logged heap, name payload half 0 or 1 and a
// payload extent among the heap's extents, and every buffer must lie
// inside that extent. Every layer writer lays node after node out
// upward, so a next pointer must lie past its node's table and inside
// the table, and no list can name more nodes than the table has room
// for. Nothing is sized from an untrusted count; nodes are kept as they
// are read.
func (r *region) load(rom *romulus.Romulus) error {
	if r.loaded {
		return nil
	}
	if r.off <= 0 || r.size < frameHdrSize || r.size > rom.Used()-r.off {
		return fmt.Errorf("%w: layer table of %d bytes at %d", ErrCorrupt, r.size, r.off)
	}
	buf := make([]byte, r.size)
	if err := rom.Load(r.off, buf); err != nil {
		return err
	}
	word := func(at uint64) (uint64, bool) {
		rel := at - uint64(r.off)
		if at < uint64(r.off) || rel > uint64(len(buf)-8) {
			return 0, false
		}
		return binary.LittleEndian.Uint64(buf[rel:]), true
	}
	h := func(at int) uint64 { return binary.LittleEndian.Uint64(buf[at:]) }
	half, numL, next := h(frameHdrHalf), h(frameHdrNumL), h(frameHdrHead)
	payOff, paySize, top := h(frameHdrPay), h(frameHdrPay+8), uint64(rom.RegionSize())
	if half > 1 {
		return fmt.Errorf("%w: payload half %d", ErrCorrupt, half)
	}
	if payOff < uint64(rom.PayloadCursor()) || payOff > top || paySize > top-payOff {
		return fmt.Errorf("%w: payload extent of %d bytes at %d", ErrCorrupt, paySize, payOff)
	}
	if numL > uint64(len(buf)/(nodeBufTable+nodeBufEntry)) {
		return fmt.Errorf("%w: %d layers in a %d-byte table", ErrCorrupt, numL, len(buf))
	}
	var layers []layerNode
	for i := uint64(0); i < numL; i++ {
		numBufs, ok := word(next + nodeNumBufs)
		if next == 0 || !ok {
			return fmt.Errorf("%w: layer %d of %d at %d, outside the table", ErrCorrupt, i, numL, next)
		}
		if numBufs == 0 || numBufs > 64 {
			return fmt.Errorf("%w: layer %d has %d buffers", ErrCorrupt, i, numBufs)
		}
		end := next + nodeBufTable + nodeBufEntry*numBufs
		if _, ok := word(end - 8); !ok {
			return fmt.Errorf("%w: layer %d's %d buffers run past the table", ErrCorrupt, i, numBufs)
		}
		node := layerNode{off: int(next), bufs: make([]bufRef, 0, numBufs)}
		for b := uint64(0); b < numBufs; b++ {
			bufOff, _ := word(next + nodeBufTable + nodeBufEntry*b)
			sealedLen, _ := word(next + nodeBufTable + nodeBufEntry*b + 8)
			if bufOff < payOff || bufOff-payOff > paySize || sealedLen > paySize-(bufOff-payOff) {
				return fmt.Errorf("%w: layer %d buffer %d of %d bytes at %d, outside the payload extent", ErrCorrupt, i, b, sealedLen, bufOff)
			}
			node.bufs = append(node.bufs, bufRef{off: int(bufOff), sealedLen: int(sealedLen)})
		}
		layers = append(layers, node)
		next, _ = word(next + nodeNext)
		if next != 0 && next < end {
			return fmt.Errorf("%w: layer %d links back to %d", ErrCorrupt, i, next)
		}
	}
	r.half, r.pay, r.layers, r.loaded = int(half), extent{off: int(payOff), size: int(paySize)}, layers, true
	return nil
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

// matches checks the layout against the network architecture.
func (r *region) matches(bufLayers [][]buffer) error {
	if len(bufLayers) != len(r.layers) {
		return fmt.Errorf("%w: %d persistent layers, %d network layers",
			ErrShapeMismatch, len(r.layers), len(bufLayers))
	}
	return r.matchesFrom(bufLayers, 0)
}

// matchesFrom checks bufLayers against the persistent layer nodes
// starting at node index from — the shard-restore shape check, where
// bufLayers is one contiguous slice of the full model's layers.
func (r *region) matchesFrom(bufLayers [][]buffer, from int) error {
	if from < 0 || from+len(bufLayers) > len(r.layers) {
		return fmt.Errorf("%w: layers [%d,%d) of %d persistent",
			ErrShapeMismatch, from, from+len(bufLayers), len(r.layers))
	}
	for li, bufs := range bufLayers {
		node := r.layers[from+li]
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

// seal is the slot writer of every save. It seals every segment of
// bufLayers under eng and generation gen straight
// into its place in r's payload half, which nothing references: each
// par.ForErr range fills its segments through romulus.FillPayload, one
// PM store and write-back per segment, with no staging copy and no
// ordering between ranges. It adds the AES time to aes and returns the
// sealed bytes.
func seal(rom *romulus.Romulus, eng *engine.Engine, bufLayers [][]buffer, r *region, gen uint64, aes *atomic.Int64) (int, error) {
	tasks, total := r.collectTasks(bufLayers, 0, gen)
	err := par.ForErr(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			t := &tasks[i]
			err := rom.FillPayload(r.half, t.off, t.sealedLen, func(dst []byte) error {
				sealStart := time.Now()
				err := t.seal(eng, dst)
				aes.Add(int64(time.Since(sealStart)))
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
	return total, err
}

// MirrorOut encrypts the enclave model's parameters and writes them as
// the training mirror's next generation, recording the iteration
// counter (Algorithm 3, mirror_out): the slot writer seals them into a
// free frame, then one durable transaction names that frame as the
// mirror's latest. The first MirrorOut of a store lays the frames out at
// the heap's cursors and allocates them in that transaction.
func (m *Model) MirrorOut(net *darknet.Network) error {
	_, err := m.save(net, false, nil)
	return err
}

// save seals net as m's next generation through m's store, published
// as the next version when publish is set, in one durable transaction.
func (m *Model) save(net *darknet.Network, publish bool, opts []PublishOption) (uint64, error) {
	if m.st == nil {
		return 0, errors.New("mirror: a published version is read-only")
	}
	return m.st.save(m.eng, net, m, true, publish, opts, nil)
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

// mirrorInFrom is MirrorIn's restore loop; the shape has already been
// checked.
func (m *Model) mirrorInFrom(net *darknet.Network, bufLayers [][]buffer, from int) (int, error) {
	if m.st != nil && m.gen == 0 {
		return 0, ErrNoMirror
	}
	tasks, total := m.collectTasks(bufLayers, from, m.gen)
	return m.openAll(net, bufLayers, from, tasks, total)
}

// openAll opens every segment task into its buffer, installs the
// iteration into net and returns it.
//
// The per-segment work — boundary copy, in-enclave AES-GCM open
// straight from PM — runs on par.ForErr. Segments decrypt into
// disjoint parameter slices, views of disjoint PM ranges run outside
// the device lock, and the enclave CopyAcross/Touch accounting is
// mutex-protected, so the parallel restore charges exactly what the
// sequential one does. The int8 scales are checked once every segment
// has opened.
func (m *Model) openAll(net *darknet.Network, bufLayers [][]buffer, from int, tasks []bufTask, total int) (int, error) {
	m.lastOpen.Store(0)
	err := par.ForErr(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) error {
		return m.restoreTasks(tasks[lo:hi])
	})
	if err != nil {
		return 0, err
	}
	if err := checkScales(bufLayers, from); err != nil {
		return 0, err
	}
	net.Iteration = int(m.iter)
	m.countOpened(net, total)
	return int(m.iter), nil
}

// countOpened adds one restore of total sealed bytes of net, and its
// AES time, to the process-wide mirror_in counters.
func (m *Model) countOpened(net *darknet.Network, total int) {
	mMirrorIn.Inc()
	mOpenSeconds.Add(time.Duration(m.lastOpen.Load()).Seconds())
	_, restoredBytes := payloadCounters(net)
	restoredBytes.Add(float64(total))
}

// restoreTasks opens each task into its own buffer, in order.
func (m *Model) restoreTasks(tasks []bufTask) error {
	for i := range tasks {
		if err := m.restore(&tasks[i], tasks[i].b); err != nil {
			return err
		}
	}
	return nil
}

// restore opens segment t of the current payload half into dst — t's
// own elements, or a buffer of their kind and length — straight from
// PM: a Romulus payload view, the enclave's boundary charge, then the
// open. There is no staging copy: OpenAAD reads memory another party
// may write, loading each sealed byte once (the stdlib path, whose GCM
// loads them twice, stages in pooled engine scratch).
func (m *Model) restore(t *bufTask, dst buffer) error {
	return m.rom.ViewPayload(m.half, t.off, t.sealedLen, func(sealed []byte) error {
		if m.encl != nil {
			m.encl.CopyAcross(len(sealed))
		}
		openStart := time.Now()
		err := t.open(m.eng, sealed, dst)
		m.lastOpen.Add(int64(time.Since(openStart)))
		if err != nil {
			return t.errorf("open", err)
		}
		return nil
	})
}

// Iteration returns the persisted iteration counter without touching
// the parameters.
func (m *Model) Iteration() int { return int(m.iter) }

// Holds reports whether the mirror's latest generation is of training
// iteration iter.
func (m *Model) Holds(iter int) bool { return m.gen != 0 && m.iter == uint64(iter) }

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
