// Package mirror implements Plinius' mirroring module (paper §IV,
// Algorithm 3): it creates and maintains an encrypted mirror copy of the
// enclave ML model in persistent memory and keeps encrypted,
// byte-addressable training data in PM (data.go).
//
// The persistent model is a linked list of layer nodes, each holding the
// sealed (AES-GCM: IV ‖ ciphertext ‖ MAC) image of every parameter
// buffer of the corresponding enclave layer — five buffers per
// convolutional layer, hence the paper's 140 B/layer encryption
// metadata. All updates run inside SGX-Romulus durable transactions, so
// a crash at any point leaves either the previous or the new mirror
// intact.
package mirror

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/obs"
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

// Mirroring fan-out: sealed buffers are AES-processed by a bounded
// worker pool — GOMAXPROCS-clamped and capped — while PM stores stay
// ordered on the calling goroutine (the Romulus redo log is
// single-writer). Small mirrors stay sequential: below the byte
// threshold the goroutine handoff costs more than the AES saved.
const (
	maxMirrorFanout     = 8
	mirrorParallelBytes = 256 << 10
)

// forceMirrorWorkers overrides the GOMAXPROCS/NumCPU clamp in tests
// (0 = off), so the fan-out paths are exercised on any machine.
var forceMirrorWorkers int

// mirrorWorkers picks the seal/open fan-out for a mirror operation of
// the given task count and total sealed bytes. The pool is clamped to
// the PHYSICAL core count as well as GOMAXPROCS: AES sealing is pure
// CPU work, so oversubscribing cores gains nothing — and because
// lastSeal/lastOpen sum per-worker wall time, time-shared workers
// would count descheduled time and inflate the Table Ia attribution.
func mirrorWorkers(tasks, totalBytes int) int {
	return mirrorWorkersAt(tasks, totalBytes, mirrorParallelBytes)
}

// mirrorWorkersAt is mirrorWorkers with an explicit byte threshold —
// the batch loader fans out at smaller payloads than model mirroring,
// since its per-task overhead (one row) is far smaller than a
// parameter buffer's.
func mirrorWorkersAt(tasks, totalBytes, threshold int) int {
	if totalBytes < threshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); w > c {
		w = c
	}
	if forceMirrorWorkers > 0 {
		// Test hook: single-core machines would otherwise never drive
		// the fan-out branch.
		w = forceMirrorWorkers
	}
	if w > tasks {
		w = tasks
	}
	if w > maxMirrorFanout {
		w = maxMirrorFanout
	}
	if w < 1 {
		w = 1
	}
	return w
}

// bufTask is one sealed parameter buffer of a mirror operation.
type bufTask struct {
	li, bi    int
	p         []float32
	off       int
	sealedLen int
}

// collectTasks flattens the (layer, buffer) pairs of a restore or
// mirror-out into a task list, one entry per sealed buffer.
func (m *Model) collectTasks(paramLayers [][][]float32, from int) ([]bufTask, int) {
	var tasks []bufTask
	total := 0
	for li, params := range paramLayers {
		node := m.layers[from+li]
		for bi, p := range params {
			tasks = append(tasks, bufTask{
				li: from + li, bi: bi, p: p,
				off:       node.bufs[bi].off,
				sealedLen: node.bufs[bi].sealedLen,
			})
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

// paramPlainLens maps fp32 parameter layers to their per-buffer
// plaintext byte lengths — the shape vocabulary the region allocator
// actually works in, shared by the fp32 and quantized codecs.
func paramPlainLens(paramLayers [][][]float32) [][]int {
	lens := make([][]int, len(paramLayers))
	for li, params := range paramLayers {
		bl := make([]int, len(params))
		for bi, p := range params {
			bl[bi] = 4 * len(p)
		}
		lens[li] = bl
	}
	return lens
}

// regionSizeFor returns the exact heap consumption of a model region
// holding one sealed buffer per plaintext length — the sum of its
// aligned allocations.
func regionSizeFor(plainLens [][]int) int {
	total := regionAlign(modelHdrSize)
	for _, bufs := range plainLens {
		total += regionAlign(nodeBufTable + nodeBufEntry*len(bufs))
		for _, n := range bufs {
			total += regionAlign(engine.SealedLen(n))
		}
	}
	return total
}

// modelRegionSize returns the exact heap consumption of an fp32 model
// region for the given parameter shape.
func modelRegionSize(paramLayers [][][]float32) int {
	return regionSizeFor(paramPlainLens(paramLayers))
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
	return allocRegionWith(rom, alloc, paramPlainLens(paramLayers))
}

// allocRegionWith lays out one persistent layer-list region — header,
// layer nodes and one sealed buffer per plaintext length — over an
// arbitrary allocator. The fp32 mirror and the quantized snapshot share
// this layout; only the plaintext lengths (and the codec that fills the
// buffers) differ.
func allocRegionWith(rom *romulus.Romulus, alloc func(int) (int, error), plainLens [][]int) (int, []layerNode, error) {
	hdr, err := alloc(modelHdrSize)
	if err != nil {
		return 0, nil, err
	}
	var layers []layerNode
	var prevNodeOff = -1
	var firstNodeOff int
	for _, params := range plainLens {
		nodeSize := nodeBufTable + nodeBufEntry*len(params)
		nodeOff, err := alloc(nodeSize)
		if err != nil {
			return 0, nil, err
		}
		node := layerNode{off: nodeOff}
		for bi, p := range params {
			sealedLen := engine.SealedLen(p)
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
	if err := rom.StoreUint64(hdr+modelHdrNumL, uint64(len(plainLens))); err != nil {
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
// walking its layer list and validating the node structure.
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
		node := layerNode{off: nodeOff}
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
	var out [][][]float32
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
			if engine.SealedLen(4*len(p)) != node.bufs[bi].sealedLen {
				return fmt.Errorf("%w: layer %d buffer %d sealed size %d vs %d",
					ErrShapeMismatch, from+li, bi, engine.SealedLen(4*len(p)), node.bufs[bi].sealedLen)
			}
		}
	}
	return nil
}

// MirrorOut encrypts the enclave model's parameters and writes them over
// the persistent mirror in one durable transaction, recording the
// iteration counter (Algorithm 3, mirror_out).
//
// Sealing fans out across a bounded worker pool (mirrorWorkers), each
// worker staging through its own engine Scratch; the PM stores stay on
// the calling goroutine, in buffer order, inside the single Romulus
// transaction — so the durable-transaction semantics and the enclave
// paging accounting are exactly those of the sequential path, while
// the AES-GCM work (the dominant save cost, Table Ia) overlaps the PM
// writes and uses all cores.
func (m *Model) MirrorOut(net *darknet.Network) error {
	paramLayers := collectParamLayers(net)
	if err := m.matches(paramLayers); err != nil {
		return err
	}
	m.lastSeal.Store(0)
	tasks, total := m.collectTasks(paramLayers, 0)
	workers := mirrorWorkers(len(tasks), total)
	err := m.rom.Update(func() error {
		if err := m.rom.StoreUint64(m.headOff+modelHdrIter, uint64(net.Iteration)); err != nil {
			return err
		}
		if workers <= 1 {
			for _, t := range tasks {
				sealStart := time.Now()
				sealed, err := m.eng.SealFloatsScratch(t.p)
				m.lastSeal.Add(int64(time.Since(sealStart)))
				if err != nil {
					return fmt.Errorf("seal layer %d buffer %d: %w", t.li, t.bi, err)
				}
				if err := m.rom.Store(t.off, sealed); err != nil {
					return err
				}
			}
			return nil
		}

		// Workers claim tasks in order and hand each sealed buffer to
		// the ordered store loop through a ring of one-deep slots, task
		// ti in slot ti%len(ring). A worker takes an inflight token
		// BEFORE claiming and the store loop returns it after storing,
		// so claimed-but-unstored tasks are at most len(ring)
		// consecutive indices: every one owns its slot, live scratch
		// buffers are bounded at 2x workers instead of one per buffer,
		// and the store loop's next task is always claimed or claimable
		// — no deadlock.
		type sealResult struct {
			sc     *engine.Scratch
			sealed []byte
			err    error
		}
		ring := make([]chan sealResult, 2*workers)
		for i := range ring {
			ring[i] = make(chan sealResult, 1)
		}
		inflight := make(chan struct{}, len(ring))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					inflight <- struct{}{}
					ti := int(next.Add(1)) - 1
					if ti >= len(tasks) {
						<-inflight
						return
					}
					sc := m.eng.AcquireScratch()
					sealStart := time.Now()
					sealed, err := m.eng.SealFloatsWith(sc, tasks[ti].p)
					m.lastSeal.Add(int64(time.Since(sealStart)))
					ring[ti%len(ring)] <- sealResult{sc, sealed, err}
				}
			}()
		}
		// Store each sealed buffer as it becomes ready, in task order;
		// after a failure keep draining so every worker exits.
		var firstErr error
		for ti, t := range tasks {
			r := <-ring[ti%len(ring)]
			if firstErr == nil && r.err != nil {
				firstErr = fmt.Errorf("seal layer %d buffer %d: %w", t.li, t.bi, r.err)
			}
			if firstErr == nil {
				firstErr = m.rom.Store(t.off, r.sealed)
			}
			m.eng.ReleaseScratch(r.sc)
			<-inflight
		}
		wg.Wait()
		return firstErr
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
// The per-buffer work — sealed PM read, boundary copy, in-enclave
// AES-GCM open — fans out across mirrorWorkers goroutines, each with
// its own read buffer and engine Scratch, so no restore worker can
// alias another's staging memory. Buffers decrypt into disjoint
// parameter slices, PM loads are device-locked, and the enclave
// CopyAcross/Touch accounting is mutex-protected, so the parallel
// restore charges exactly what the sequential one does.
func (m *Model) mirrorInFrom(net *darknet.Network, paramLayers [][][]float32, from int) (int, error) {
	iter, err := m.rom.LoadUint64(m.headOff + modelHdrIter)
	if err != nil {
		return 0, err
	}
	m.lastOpen.Store(0)
	tasks, total := m.collectTasks(paramLayers, from)
	workers := mirrorWorkers(len(tasks), total)

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	// The sealed bytes stage through the scratch's sealed side (the
	// open uses only its plain side), so steady-state restores — the
	// streaming shard group's per-batch path — allocate nothing: the
	// scratch pool keeps the buffers alive across calls.
	restore := func(sc *engine.Scratch, t bufTask) {
		sealed := sc.SealedBuf(t.sealedLen)
		if err := m.rom.Load(t.off, sealed); err != nil {
			fail(err)
			return
		}
		if m.encl != nil {
			m.encl.CopyAcross(len(sealed))
		}
		openStart := time.Now()
		err := m.eng.OpenFloatsWith(sc, t.p, sealed)
		m.lastOpen.Add(int64(time.Since(openStart)))
		if err != nil {
			fail(fmt.Errorf("open layer %d buffer %d: %w", t.li, t.bi, err))
		}
	}

	if workers <= 1 {
		sc := m.eng.AcquireScratch()
		for _, t := range tasks {
			restore(sc, t)
			if failed() {
				break
			}
		}
		m.eng.ReleaseScratch(sc)
	} else {
		idx := make(chan int, len(tasks))
		for i := range tasks {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := m.eng.AcquireScratch()
				defer m.eng.ReleaseScratch(sc)
				for ti := range idx {
					if failed() {
						return
					}
					restore(sc, tasks[ti])
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return 0, firstErr
	}
	net.Iteration = int(iter)
	mMirrorIn.Inc()
	mOpenSeconds.Add(time.Duration(m.lastOpen.Load()).Seconds())
	mRestoredBytes.Add(float64(total))
	return int(iter), nil
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
// engine.Overhead (28 B) per sealed buffer, e.g. 140 B per conv layer.
func (m *Model) MetadataBytes() int {
	total := 0
	for _, node := range m.layers {
		total += engine.Overhead * len(node.bufs)
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
