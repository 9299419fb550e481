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
package mirror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
//	fp32 buffer : segment 0 | ... | segment k-1, each IV ‖ ciphertext ‖ MAC
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

// Segmented sealing. An fp32 parameter buffer of n floats is sealed as
// k = ceil(4n / segmentBytes) segments (at least one): its floats split
// evenly into k parts, each sealed as its own IV ‖ ciphertext ‖ MAC and
// laid out back to back at the buffer's offset, so the layer table
// records 4n + 28k bytes. Each segment is one task of the seal/open
// fan-out, so one large layer seals and opens on every core. k is not
// stored: the recorded length strictly increases with n, so it names
// one n and one k (segmentsIn).
//
// A one-segment buffer binds no additional data. For k > 1 each
// segment's MAC also binds (node index, buffer index, segment index,
// k), so a segment swapped within its buffer, moved to another buffer
// or node, or cut from a buffer of a different k fails authentication.
//
// The int8 quantized variant, tensor stores, data rows and the SSD
// checkpoint keep one segment per buffer.
const segmentBytes = 1 << 20

// segmentsFor returns the segment count MirrorOut writes for an fp32
// buffer of n floats.
func segmentsFor(n int) int {
	return max(1, (4*n+segmentBytes-1)/segmentBytes)
}

// segmentedLen returns the sealed length of n floats in k segments.
func segmentedLen(n, k int) int { return 4*n + k*engine.Overhead }

// sealedLenOf returns the sealed length MirrorOut writes for an fp32
// buffer of n floats. A layer-table entry comes from untrusted PM, so
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
	p              []float32
	off            int
	sealedLen      int
	aad            [16]byte // li, bi, seg, k as little-endian uint32s
}

// additionalData returns what the segment's MAC binds besides its
// ciphertext: nothing for a one-segment buffer. It points into the
// task, so callers hold the task by pointer.
func (t *bufTask) additionalData() []byte {
	if t.k == 1 {
		return nil
	}
	return t.aad[:]
}

// errorf wraps a seal or open failure with the segment's place.
func (t *bufTask) errorf(op string, err error) error {
	return fmt.Errorf("%s layer %d buffer %d segment %d/%d: %w", op, t.li, t.bi, t.seg, t.k, err)
}

// collectTasks flattens the (layer, buffer, segment) triples of a
// restore or mirror-out into a task list, and returns it with the
// sealed bytes it covers. The shape has been checked (matchesFrom), so
// every recorded length is sealedLenOf its buffer.
func (m *Model) collectTasks(paramLayers [][][]float32, from int) ([]bufTask, int) {
	count := 0
	for _, params := range paramLayers {
		for _, p := range params {
			count += segmentsFor(len(p))
		}
	}
	tasks := make([]bufTask, 0, count)
	total := 0
	for li, params := range paramLayers {
		node := m.layers[from+li]
		for bi, p := range params {
			k := segmentsFor(len(p))
			off := node.bufs[bi].off
			for s := 0; s < k; s++ {
				seg := p[s*len(p)/k : (s+1)*len(p)/k]
				t := bufTask{li: from + li, bi: bi, seg: s, k: k, p: seg, off: off, sealedLen: segmentedLen(len(seg), 1)}
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
// transaction (Algorithm 3, alloc_mirror_model) and roots it.
func AllocModel(rom *romulus.Romulus, eng *engine.Engine, net *darknet.Network, opts ...Option) (*Model, error) {
	m := &Model{rom: rom, eng: eng}
	for _, opt := range opts {
		opt(m)
	}
	paramLayers := collectParamLayers(net)
	err := rom.Update(func() error {
		hdr, layers, err := allocModelRegion(rom, paramLayers)
		if err != nil {
			return err
		}
		m.headOff, m.layers = hdr, layers
		return rom.SetRoot(RootModel, hdr)
	})
	if err != nil {
		return nil, fmt.Errorf("mirror alloc: %w", err)
	}
	return m, nil
}

// allocModelRegion lays out one persistent model region — header, layer
// nodes and sealed buffers — inside an already-open transaction. It does
// not root the region; callers decide where the header is referenced
// from (the RootModel slot for the training mirror, a publication slot
// for published snapshots).
func allocModelRegion(rom *romulus.Romulus, paramLayers [][][]float32) (int, []layerNode, error) {
	return allocModelRegionWith(rom, rom.Alloc, paramLayers)
}

// regionAlign applies the Romulus bump allocator's alignment, so
// modelRegionSize predicts exactly what a fresh allocModelRegion
// consumes and an in-region bump allocator lays out identically.
func regionAlign(n int) int {
	return (n + romulus.AllocAlign - 1) / romulus.AllocAlign * romulus.AllocAlign
}

// paramSealedLens maps fp32 parameter layers to the per-buffer sealed
// byte lengths MirrorOut writes — the shape vocabulary the region
// allocator works in, shared by the fp32 and quantized codecs.
func paramSealedLens(paramLayers [][][]float32) [][]int {
	lens := make([][]int, len(paramLayers))
	for li, params := range paramLayers {
		bl := make([]int, len(params))
		for bi, p := range params {
			bl[bi] = sealedLenOf(len(p))
		}
		lens[li] = bl
	}
	return lens
}

// regionSizeFor returns the exact heap consumption of a model region
// holding one sealed buffer per length — the sum of its aligned
// allocations.
func regionSizeFor(sealedLens [][]int) int {
	total := regionAlign(modelHdrSize)
	for _, bufs := range sealedLens {
		total += regionAlign(nodeBufTable + nodeBufEntry*len(bufs))
		for _, n := range bufs {
			total += regionAlign(n)
		}
	}
	return total
}

// modelRegionSize returns the exact heap consumption of an fp32 model
// region for the given parameter shape.
func modelRegionSize(paramLayers [][][]float32) int {
	return regionSizeFor(paramSealedLens(paramLayers))
}

// regionAllocator bump-allocates inside an existing PM region [base,
// base+size) — the publication slot GC path, which re-lays out a
// recycled region for a new shape instead of leaking it. Allocation
// order and alignment match the Romulus heap allocator, so any shape
// whose modelRegionSize fits the region lays out in place.
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

// allocModelRegionWith is allocModelRegion over an arbitrary allocator:
// the Romulus heap for fresh regions, an in-region bump allocator for
// recycled ones.
func allocModelRegionWith(rom *romulus.Romulus, alloc func(int) (int, error), paramLayers [][][]float32) (int, []layerNode, error) {
	return allocRegionWith(rom, alloc, paramSealedLens(paramLayers))
}

// allocRegionWith lays out one persistent layer-list region — header,
// layer nodes and one sealed buffer per length — over an arbitrary
// allocator. The fp32 mirror and the quantized snapshot share this
// layout; only the sealed lengths (and the codec that fills the
// buffers) differ.
func allocRegionWith(rom *romulus.Romulus, alloc func(int) (int, error), sealedLens [][]int) (int, []layerNode, error) {
	hdr, err := alloc(modelHdrSize)
	if err != nil {
		return 0, nil, err
	}
	var layers []layerNode
	var prevNodeOff = -1
	var firstNodeOff int
	for _, params := range sealedLens {
		nodeSize := nodeBufTable + nodeBufEntry*len(params)
		nodeOff, err := alloc(nodeSize)
		if err != nil {
			return 0, nil, err
		}
		node := layerNode{off: nodeOff}
		for bi, sealedLen := range params {
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
		if err := rom.StoreUint64(nodeOff+nodeNumBufs, uint64(len(params))); err != nil {
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
	if err := rom.StoreUint64(hdr+modelHdrNumL, uint64(len(sealedLens))); err != nil {
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

// collectParamLayers returns the parameter buffers of every layer that
// has any (conv: 5 buffers, connected: 2; pooling/softmax: none).
func collectParamLayers(net *darknet.Network) [][][]float32 {
	out := make([][][]float32, 0, len(net.Layers))
	for _, l := range net.Layers {
		if params := l.Params(); len(params) > 0 {
			out = append(out, params)
		}
	}
	return out
}

// matches checks the persistent layout against the network architecture.
func (m *Model) matches(paramLayers [][][]float32) error {
	if len(paramLayers) != len(m.layers) {
		return fmt.Errorf("%w: %d persistent layers, %d network layers",
			ErrShapeMismatch, len(m.layers), len(paramLayers))
	}
	return m.matchesFrom(paramLayers, 0)
}

// matchesFrom checks paramLayers against the persistent layer nodes
// starting at node index from — the shard-restore shape check, where
// paramLayers is one contiguous slice of the full model's layers.
func (m *Model) matchesFrom(paramLayers [][][]float32, from int) error {
	if from < 0 || from+len(paramLayers) > len(m.layers) {
		return fmt.Errorf("%w: layers [%d,%d) of %d persistent",
			ErrShapeMismatch, from, from+len(paramLayers), len(m.layers))
	}
	for li, params := range paramLayers {
		node := m.layers[from+li]
		if len(params) != len(node.bufs) {
			return fmt.Errorf("%w: layer %d has %d buffers, persistent %d",
				ErrShapeMismatch, from+li, len(params), len(node.bufs))
		}
		for bi, p := range params {
			if node.bufs[bi].sealedLen != sealedLenOf(len(p)) {
				return fmt.Errorf("%w: layer %d buffer %d of %d floats recorded as %d sealed bytes",
					ErrShapeMismatch, from+li, bi, len(p), node.bufs[bi].sealedLen)
			}
		}
	}
	return nil
}

// MirrorOut encrypts the enclave model's parameters and writes them over
// the persistent mirror in one durable transaction, recording the
// iteration counter (Algorithm 3, mirror_out).
//
// Segments are sealed on par.For, each range through its own engine
// Scratch, and stored in segment order inside the single Romulus
// transaction: a sealed segment waits for its predecessor's store. So
// the durable-transaction semantics, the ascending redo log the chunked
// commit copy needs, and the enclave paging accounting are exactly those
// of the sequential path, while the AES-GCM work (the dominant save
// cost, Table Ia) overlaps the PM writes and uses all cores.
func (m *Model) MirrorOut(net *darknet.Network) error {
	paramLayers := collectParamLayers(net)
	if err := m.matches(paramLayers); err != nil {
		return err
	}
	m.lastSeal.Store(0)
	tasks, total := m.collectTasks(paramLayers, 0)
	err := m.rom.Update(func() error {
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
				sealed, err := m.eng.SealFloatsAAD(sc, t.p, t.additionalData())
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
		mMirrorOut.Inc()
		mSealSeconds.Add(time.Duration(m.lastSeal.Load()).Seconds())
		mMirroredBytes.Add(float64(total))
	}
	return err
}

// MirrorIn reads the persistent mirror, decrypts it inside the enclave
// and installs the parameters and iteration counter into net
// (Algorithm 3, mirror_in). It returns the restored iteration.
func (m *Model) MirrorIn(net *darknet.Network) (int, error) {
	paramLayers := collectParamLayers(net)
	if err := m.matches(paramLayers); err != nil {
		return 0, err
	}
	return m.mirrorInFrom(net, paramLayers, 0)
}

// MirrorInRange restores only the slice of the persistent model whose
// layer nodes start at index from — the shard-restore path: net is a
// shard sub-network whose parameter layers correspond to persistent
// nodes [from, from+n), and only that range's sealed buffers are read,
// decrypted and installed. The persisted iteration counter (shared by
// the whole snapshot) is installed into net and returned.
func (m *Model) MirrorInRange(net *darknet.Network, from int) (int, error) {
	paramLayers := collectParamLayers(net)
	if err := m.matchesFrom(paramLayers, from); err != nil {
		return 0, err
	}
	return m.mirrorInFrom(net, paramLayers, from)
}

// mirrorInFrom is the shared restore loop of MirrorIn and
// MirrorInRange; the shape has already been checked.
//
// The per-segment work — sealed PM read, boundary copy, in-enclave
// AES-GCM open — runs on par.For, each range through its own engine
// Scratch, so no range can alias another's staging memory. Segments
// decrypt into disjoint parameter slices, PM loads are device-locked,
// and the enclave CopyAcross/Touch accounting is mutex-protected, so
// the parallel restore charges exactly what the sequential one does.
func (m *Model) mirrorInFrom(net *darknet.Network, paramLayers [][][]float32, from int) (int, error) {
	iter, err := m.rom.LoadUint64(m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	m.lastOpen.Store(0)
	tasks, total := m.collectTasks(paramLayers, from)
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
	net.Iteration = int(iter)
	mMirrorIn.Inc()
	mOpenSeconds.Add(time.Duration(m.lastOpen.Load()).Seconds())
	mRestoredBytes.Add(float64(total))
	return int(iter), nil
}

// restore loads segment t from PM and opens it into its parameters.
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
	err := m.eng.OpenFloatsAAD(t.p, sealed, t.additionalData())
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
// engine.Overhead (28 B) per sealed segment, i.e. SealedBytes minus the
// plaintext parameter bytes — 140 B per conv layer whose buffers are
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

// SealedBytes returns the total persistent size of the mirror payload.
func (m *Model) SealedBytes() int {
	total := 0
	for _, node := range m.layers {
		for _, b := range node.bufs {
			total += b.sealedLen
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
