// Package mirror implements Plinius' mirroring module (paper §IV,
// Algorithm 3): it creates and maintains an encrypted mirror copy of the
// enclave ML model in persistent memory and keeps encrypted,
// byte-addressable training data in PM (data.go).
//
// The persistent model is a linked list of layer nodes, each holding the
// sealed (AES-GCM: IV ‖ ciphertext ‖ MAC) image of every parameter
// buffer of the corresponding enclave layer, with 28 bytes of metadata
// per sealed segment. A buffer of up to 1 MiB is one segment — five per
// convolutional layer, hence the paper's 140 B/layer encryption
// metadata — and a larger one is sealed as several (see segmentBytes).
// All updates run inside SGX-Romulus durable transactions, so a crash
// at any point leaves either the previous or the new mirror intact.
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
	"sync"
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

// Persistent layout offsets (all values little-endian uint64):
//
//	model header: iter | numLayers | headOff
//	layer node  : nextOff | numBufs | (bufOff, sealedLen) x numBufs
//	buffer      : segment 0 | ... | segment k-1, each IV ‖ ciphertext ‖ MAC
const (
	modelHdrIter = 0
	modelHdrNumL = 8
	modelHdrHead = 16
	modelHdrSize = 24
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

// Model is a handle to the encrypted mirror copy of a network in PM.
type Model struct {
	rom     *romulus.Romulus
	eng     *engine.Engine
	encl    *enclave.Enclave
	headOff int
	layers  []layerNode
	// rootPending marks a region AllocModel laid out but no MirrorOut
	// has filled yet: the first MirrorOut roots it.
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
// A one-segment fp32 buffer binds no additional data (the paper's
// frame). Every other segment — of a buffer with k > 1, or of any
// buffer of an int8 layer — also binds (node index, buffer index,
// segment index, k) in its MAC, so a segment swapped within its buffer,
// moved to another buffer or node, or cut from a buffer of a different
// k fails authentication. In an int8 snapshot that covers the one-float
// scales, which every quantized layer has.
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
	bind           bool     // the MAC binds aad
	aad            [16]byte // li, bi, seg, k as little-endian uint32s
}

// additionalData returns what the segment's MAC binds besides its
// ciphertext: nothing for a one-segment fp32 buffer. It points into the
// task, so callers hold the task by pointer.
func (t *bufTask) additionalData() []byte {
	if !t.bind {
		return nil
	}
	return t.aad[:]
}

// seal seals the segment through sc.
func (t *bufTask) seal(eng *engine.Engine, sc *engine.Scratch) ([]byte, error) {
	if t.b.q != nil {
		return eng.SealAAD(sc, t.b.codes(), t.additionalData())
	}
	return eng.SealFloatsAAD(sc, t.b.f, t.additionalData())
}

// open opens sealed into the segment's elements.
func (t *bufTask) open(eng *engine.Engine, sealed []byte) error {
	if t.b.q != nil {
		return eng.OpenAAD(t.b.codes(), sealed, t.additionalData())
	}
	return eng.OpenFloatsAAD(t.b.f, sealed, t.additionalData())
}

// errorf wraps a seal or open failure with the segment's place.
func (t *bufTask) errorf(op string, err error) error {
	return fmt.Errorf("%s layer %d buffer %d segment %d/%d: %w", op, t.li, t.bi, t.seg, t.k, err)
}

// collectTasks flattens the (layer, buffer, segment) triples of a
// restore or mirror-out into a task list, and returns it with the
// sealed bytes it covers. The shape has been checked (matchesFrom), so
// every recorded length is sealedLenOf its buffer.
func (m *Model) collectTasks(bufLayers [][]buffer, from int) ([]bufTask, int) {
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
		int8Layer := bufs[0].q != nil
		for bi, b := range bufs {
			k := segmentsFor(b.size())
			off := node.bufs[bi].off
			for s := 0; s < k; s++ {
				seg := b.part(s, k)
				t := bufTask{li: from + li, bi: bi, seg: s, k: k, b: seg, off: off,
					sealedLen: segmentedLen(seg.size(), 1), bind: k > 1 || int8Layer}
				for i, v := range [...]int{from + li, bi, s, k} {
					binary.LittleEndian.PutUint32(t.aad[4*i:], uint32(v))
				}
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

// AllocModel allocates the persistent mirror of net in one durable
// transaction (Algorithm 3, alloc_mirror_model). The first MirrorOut
// roots it, in the transaction that fills it: until that commits, a
// crash leaves no mirror, and recovery trains from scratch (Algorithm
// 2, lines 7-12) instead of finding a rooted region of unwritten
// buffers. The region of a mirror a crash leaves unrooted stays
// allocated, as Romulus has no free.
func AllocModel(rom *romulus.Romulus, eng *engine.Engine, net *darknet.Network, opts ...Option) (*Model, error) {
	m := &Model{rom: rom, eng: eng, rootPending: true}
	for _, opt := range opts {
		opt(m)
	}
	bufLayers := collectBuffers(net)
	err := rom.Update(func() error {
		hdr, layers, err := allocRegionWith(rom, rom.Alloc, bufLayers)
		if err != nil {
			return err
		}
		m.headOff, m.layers = hdr, layers
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mirror alloc: %w", err)
	}
	return m, nil
}

// regionAlign applies the Romulus bump allocator's alignment, so
// regionSize predicts exactly what a fresh allocRegionWith consumes and
// an in-region bump allocator lays out identically.
func regionAlign(n int) int {
	return (n + romulus.AllocAlign - 1) / romulus.AllocAlign * romulus.AllocAlign
}

// regionSize returns the exact heap consumption of a model region for
// the given buffers — the sum of its aligned allocations.
func regionSize(bufLayers [][]buffer) int {
	total := regionAlign(modelHdrSize)
	for _, bufs := range bufLayers {
		total += regionAlign(nodeBufTable + nodeBufEntry*len(bufs))
		for _, b := range bufs {
			total += regionAlign(sealedLenOf(b.size()))
		}
	}
	return total
}

// regionAllocator bump-allocates inside an existing PM region [base,
// base+size) — the publication slot GC path, which re-lays out a
// recycled region for a new shape instead of leaking it. Allocation
// order and alignment match the Romulus heap allocator, so any shape
// whose regionSize fits the region lays out in place.
func regionAllocator(base, size int) func(int) (int, error) {
	bump := base
	return func(n int) (int, error) {
		aligned := regionAlign(n)
		if bump+aligned > base+size {
			return 0, fmt.Errorf("mirror: region reuse overflow: %d + %d > %d", bump-base, aligned, size)
		}
		off := bump
		bump += aligned
		return off, nil
	}
}

// allocRegionWith lays out one persistent model region — header, layer
// nodes and one sealed buffer per parameter buffer — inside an
// already-open transaction, over an arbitrary allocator: the Romulus
// heap for fresh regions, an in-region bump allocator for recycled
// ones. It does not root the region; callers decide where the header is
// referenced from (the RootModel slot for the training mirror, a
// publication slot for published snapshots).
func allocRegionWith(rom *romulus.Romulus, alloc func(int) (int, error), bufLayers [][]buffer) (int, []layerNode, error) {
	hdr, err := alloc(modelHdrSize)
	if err != nil {
		return 0, nil, err
	}
	var layers []layerNode
	var prevNodeOff = -1
	var firstNodeOff int
	for _, bufs := range bufLayers {
		nodeSize := nodeBufTable + nodeBufEntry*len(bufs)
		nodeOff, err := alloc(nodeSize)
		if err != nil {
			return 0, nil, err
		}
		node := layerNode{off: nodeOff}
		for bi, b := range bufs {
			sealedLen := sealedLenOf(b.size())
			bufOff, err := alloc(sealedLen)
			if err != nil {
				return 0, nil, err
			}
			node.bufs = append(node.bufs, bufRef{off: bufOff, sealedLen: sealedLen})
			entry := nodeOff + nodeBufTable + nodeBufEntry*bi
			if err := rom.StoreUint64(entry, uint64(bufOff)); err != nil {
				return 0, nil, err
			}
			if err := rom.StoreUint64(entry+8, uint64(sealedLen)); err != nil {
				return 0, nil, err
			}
		}
		if err := rom.StoreUint64(nodeOff+nodeNext, 0); err != nil {
			return 0, nil, err
		}
		if err := rom.StoreUint64(nodeOff+nodeNumBufs, uint64(len(bufs))); err != nil {
			return 0, nil, err
		}
		if prevNodeOff >= 0 {
			if err := rom.StoreUint64(prevNodeOff+nodeNext, uint64(nodeOff)); err != nil {
				return 0, nil, err
			}
		} else {
			firstNodeOff = nodeOff
		}
		prevNodeOff = nodeOff
		layers = append(layers, node)
	}
	if err := rom.StoreUint64(hdr+modelHdrIter, 0); err != nil {
		return 0, nil, err
	}
	if err := rom.StoreUint64(hdr+modelHdrNumL, uint64(len(bufLayers))); err != nil {
		return 0, nil, err
	}
	if err := rom.StoreUint64(hdr+modelHdrHead, uint64(firstNodeOff)); err != nil {
		return 0, nil, err
	}
	return hdr, layers, nil
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
// is bounded by what PM holds: every layer writer allocates node after
// node upward, so a next pointer must lie past its node's table, and no
// list can name more nodes than the region has room for. Nothing is
// sized from the untrusted layer count; nodes are kept as they are read.
func openModelAt(rom *romulus.Romulus, eng *engine.Engine, hdr int, opts ...Option) (*Model, error) {
	m := &Model{rom: rom, eng: eng, headOff: hdr}
	for _, opt := range opts {
		opt(m)
	}
	numL, err := rom.LoadUint64(hdr + modelHdrNumL)
	if err != nil {
		return nil, err
	}
	next, err := rom.LoadUint64(hdr + modelHdrHead)
	if err != nil {
		return nil, err
	}
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

// SetEngine swaps the encryption engine used for subsequent mirror
// operations — the key-rotation path: after the owner provisions a new
// data key, the next MirrorOut re-seals the parameters under it.
func (m *Model) SetEngine(eng *engine.Engine) { m.eng = eng }

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

// MirrorOut encrypts the enclave model's parameters and writes them over
// the persistent mirror in one durable transaction, recording the
// iteration counter (Algorithm 3, mirror_out). The first MirrorOut of
// an AllocModel handle also roots the mirror.
//
// Segments are sealed on par.For, each range through its own engine
// Scratch, and stored in segment order inside the single Romulus
// transaction: a sealed segment waits for its predecessor's store. So
// the durable-transaction semantics, the ascending redo log the chunked
// commit copy needs, and the enclave paging accounting are exactly those
// of the sequential path, while the AES-GCM work (the dominant save
// cost, Table Ia) overlaps the PM writes and uses all cores.
func (m *Model) MirrorOut(net *darknet.Network) error {
	bufLayers := collectBuffers(net)
	if err := m.matches(bufLayers); err != nil {
		return err
	}
	m.lastSeal.Store(0)
	tasks, total := m.collectTasks(bufLayers, 0)
	err := m.rom.Update(func() error {
		if m.rootPending {
			if err := m.rom.SetRoot(RootModel, m.headOff); err != nil {
				return err
			}
		}
		if err := m.rom.StoreUint64(m.headOff+modelHdrIter, uint64(net.Iteration)); err != nil {
			return err
		}
		// A segment waits only for segments claimed before its own,
		// which running ranges hold, so the wait always ends.
		var order struct {
			sync.Mutex
			turn   sync.Cond
			stored int // segments [0, stored) are stored
			err    error
			failed atomic.Bool
		}
		order.turn.L = &order
		par.For(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) {
			sc := m.eng.AcquireScratch()
			defer m.eng.ReleaseScratch(sc)
			for i := lo; i < hi && !order.failed.Load(); i++ {
				t := &tasks[i]
				sealStart := time.Now()
				sealed, err := t.seal(m.eng, sc)
				m.lastSeal.Add(int64(time.Since(sealStart)))
				order.Lock()
				for order.stored < i && order.err == nil {
					order.turn.Wait()
				}
				switch {
				case order.err != nil:
				case err != nil:
					order.err = t.errorf("seal", err)
				default:
					order.err = m.rom.Store(t.off, sealed)
				}
				order.stored = i + 1
				order.failed.Store(order.err != nil)
				order.Unlock()
				order.turn.Broadcast()
			}
		})
		return order.err
	})
	if err == nil {
		m.rootPending = false
		mMirrorOut.Inc()
		mSealSeconds.Add(time.Duration(m.lastSeal.Load()).Seconds())
		sealedBytes, _ := payloadCounters(net)
		sealedBytes.Add(float64(total))
	}
	return err
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
// The per-segment work — sealed PM read, boundary copy, in-enclave
// AES-GCM open — runs on par.For, each range through its own engine
// Scratch, so no range can alias another's staging memory. Segments
// decrypt into disjoint parameter slices, PM loads are device-locked,
// and the enclave CopyAcross/Touch accounting is mutex-protected, so
// the parallel restore charges exactly what the sequential one does.
func (m *Model) mirrorInFrom(net *darknet.Network, bufLayers [][]buffer, from int) (int, error) {
	iter, err := m.rom.LoadUint64(m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	m.lastOpen.Store(0)
	tasks, total := m.collectTasks(bufLayers, from)
	var first struct {
		sync.Mutex
		err error
	}
	par.For(len(tasks), taskGrain(len(tasks), total), func(lo, hi int) {
		sc := m.eng.AcquireScratch()
		defer m.eng.ReleaseScratch(sc)
		for i := lo; i < hi; i++ {
			err := m.restore(sc, &tasks[i])
			first.Lock()
			if first.err == nil {
				first.err = err
			}
			failed := first.err != nil
			first.Unlock()
			if failed {
				return
			}
		}
	})
	if first.err != nil {
		return 0, first.err
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

// restore loads segment t from PM and opens it into its buffer.
// The sealed bytes stage through sc's sealed side (the open uses only
// its plain side), so steady-state restores — the streaming shard
// group's per-batch path — allocate nothing: the scratch pool keeps the
// buffers alive across calls.
func (m *Model) restore(sc *engine.Scratch, t *bufTask) error {
	sealed := sc.SealedBuf(t.sealedLen)
	if err := m.rom.Load(t.off, sealed); err != nil {
		return err
	}
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
