package darknet

// Multi-core GEMM kernels. The three matrix-multiply shapes behind
// every Forward/Backward (gemm, gemmTA, gemmTB in darknet.go) dispatch
// here. Under each shape sit interchangeable single-threaded kernel
// tiers: assembly micro-kernels (kernel_amd64.s, selected once at init
// by CPUID probes) that keep a C row segment — or, for gemmTB, a block
// of dot products — in vector registers across the whole inner-product
// sweep, eight lanes wide on AVX2 and sixteen on AVX-512, where
// gemmTB's lanes are sixteen outputs of a row-major B; and the portable
// register-blocked Go kernels below, which
// every other platform and -tags purego run. Every kernel finds B's
// rows through a rowsB: a row-major B, or — for the shifted-GEMM
// convolution (conv.go) — rows at a table of offsets into a sample's
// zero-padded input planes, read by gemmTB in segments that step over
// the padding between output rows. A caller whose C is to be
// overwritten says so (write), and the axpy kernels then start their
// sums at +0 instead of loading C — the value clearing C first would
// give, without the clear. par.For shards output rows (for
// a gemmTB with few rows, output columns) across the process's worker
// pool; the layer passes use the same pool to fork once over the
// samples of a batch instead of once per GEMM, each worker with its
// own per-sample scratch from scratchPool.
//
// Every kernel is bit-identical to the scalar reference kernels: each
// output element receives exactly the same additions in exactly the
// same order (ascending p, no fused multiply-add, the same zero-skip),
// only distributed across vector lanes and goroutines by output
// element — no partial sums are merged — so parallel training and
// inference reproduce the single-threaded results float for float. The
// property tests in parallel_test.go and kernel_test.go enforce this
// with tolerance zero.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"plinius/internal/obs"
	"plinius/internal/par"
)

// mGemmBlocked counts dispatches onto the register-blocked kernels
// (the non-scalar path), so deployments can verify the fast kernels
// are actually in play; darknet_kernel_isa says which set is live.
var mGemmBlocked = obs.Default().Counter("darknet_gemm_blocked_total",
	"GEMM dispatches onto the register-blocked (non-scalar) kernels.")

func init() {
	obs.Default().Gauge("darknet_kernel_isa",
		"Instruction set of the live GEMM micro-kernels (info series, always 1).",
		obs.Label{Key: "isa", Value: KernelISA()}).Set(1)
}

// KernelISA names the live blocked kernels: "avx512" or "avx2"
// (assembly), or "go".
func KernelISA() string { return live.String() }

// kernelTier is one set of blocked GEMM kernels. A CPU that runs a tier
// runs every tier below it.
type kernelTier int

const (
	tierGo     kernelTier = iota // the portable Go kernels
	tierAVX2                     // the 8-lane axpy and dot-panel micro-kernels
	tierAVX512                   // the axpy kernel at 16 lanes; gemmTB's lanes are 16 outputs
)

func (t kernelTier) String() string { return [...]string{"go", "avx2", "avx512"}[t] }

// live is the fastest tier the CPU runs, probed once at init.
var live = probeTier()

// scalarKernels forces the single-threaded scalar reference kernels,
// for benchmarks that measure the parallel speedup and for debugging.
var scalarKernels atomic.Bool

// SetScalarKernels toggles the scalar reference kernels. The blocked
// parallel kernels are bit-identical, so this only changes speed; it
// exists for before/after benchmarking (BenchmarkTrainIteration) and
// for the tests that compare the two.
func SetScalarKernels(on bool) { scalarKernels.Store(on) }

// gemmParallelFlops is the multiply-add count a parallel chunk must
// carry: ~10 µs on the AVX2 kernels (about eight multiply-adds a
// cycle), against a fork-join handoff that measures 0.5 µs with the
// peer spinning and several µs when it has to be woken.
const gemmParallelFlops = 1 << 18

// gemmBlockJ is the output-column block width (floats) of the portable
// gemm kernel: 256 floats = 1 KB of C row segment held hot in L1 while
// B streams past.
const gemmBlockJ = 256

// minChunk returns the par.For grain for items of flopsPerItem
// multiply-adds each: the fewest that carry gemmParallelFlops.
func minChunk(flopsPerItem int) int { return max(1, gemmParallelFlops/max(1, flopsPerItem)) }

// serial reports whether a loop of n items, grain to a range, runs on
// the caller alone: under the scalar reference kernels (single-threaded
// by definition), on one core, or when n fits in one range. Callers
// test it to run inline, because a func literal handed to par.For
// escapes and would be allocated even when nothing forks.
func serial(n, grain int) bool {
	return scalarKernels.Load() || n <= grain || runtime.GOMAXPROCS(0) == 1
}

// scratchPool recycles per-worker kernel scratch (packed A panels, a
// convolution's padded input planes and column tiles) so the hot paths
// stay allocation-free.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// gemmShape is one of the three matrix-multiply shapes.
type gemmShape int

const (
	shapeAB gemmShape = iota // C += A * B
	shapeTA                  // C += Aᵀ * B
	shapeTB                  // C += A * Bᵀ
)

// tbPanel is the granule of a gemmTB row shard: the AVX2 kernel's
// lanes are eight output rows against eight B rows, and the AVX-512
// kernel takes A eight rows a pass.
const tbPanel = 8

// tbCols is the granule of a gemmTB column shard: the outputs one
// AVX-512 micro-kernel call covers, two AVX2 dot panels.
const tbCols = 16

// rowsB locates the rows of a GEMM's B operand in its backing slice b.
// Each of gemm's and gemmTA's k rows (B is k x n) is read n floats on;
// each of gemmTB's n rows (B is n x k) is read as k/seg segments of seg
// floats, each skip floats past the end of the one before. A row-major
// B has no off: row r starts at b[r·stride], in one segment. The
// shifted-GEMM convolution (conv.go) sets off, and row r starts at
// b[off[r]], inside a zero-padded input plane. It also lends the
// kernels pack, its per-sample scratch, for their packed A panels; a
// kernel that finds pack too short, or shared by a fork, draws its
// own from scratchPool.
type rowsB struct {
	off               []int
	stride, seg, skip int
	pack              []float32
}

// rowMajor is the rowsB of a row-major B whose rows are length floats.
func rowMajor(length int) rowsB { return rowsB{stride: length, seg: length} }

// row returns where row r starts in b.
func (rb rowsB) row(r int) int {
	if rb.off == nil {
		return r * rb.stride
	}
	return rb.off[r]
}

// run executes one m x n GEMM with inner dimension k: on the scalar
// reference when that is forced, otherwise on the blocked kernels,
// sharded across the worker pool when fork is set and the multiply is
// big enough. Layer passes that fan out over samples pass fork=false.
// With write set, C's old values are not read: every element becomes
// exactly what it would be had C been cleared to +0 first.
func (s gemmShape) run(fork, write bool, m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("darknet: gemm operand shorter than its shape")
	}
	if scalarKernels.Load() {
		if write {
			clear(c[:m*n])
		}
		switch s {
		case shapeAB:
			gemmScalar(m, k, n, a, b, c)
		case shapeTA:
			gemmTAScalar(m, k, n, a, b, c)
		default:
			gemmTBScalar(m, k, n, a, b, c)
		}
		return
	}
	length := n
	if s == shapeTB {
		length = k
	}
	s.blocked(fork, write, m, k, n, a, b, rowMajor(length), c)
}

// runRows is run on the blocked kernels for a B whose rows rb locates.
// It checks that every row lies inside b, since the assembly kernels
// index without bounds checks. It has no scalar leg: the shifted-GEMM
// convolution, its one caller, takes explicit columns and run when the
// scalar reference is forced.
func (s gemmShape) runRows(fork, write bool, m, k, n int, a, b []float32, rb rowsB, c []float32) {
	rows, extent := k, n
	if s == shapeTB {
		rows, extent = n, 0
		if k > 0 {
			if rb.seg <= 0 || rb.skip < 0 || k%rb.seg != 0 {
				panic("darknet: gemm B segments do not tile its rows")
			}
			extent = k + (k/rb.seg-1)*rb.skip
		}
	}
	if len(a) < m*k || len(c) < m*n || rb.off == nil || len(rb.off) < rows {
		panic("darknet: gemm operand shorter than its shape")
	}
	for _, o := range rb.off[:rows] {
		if o < 0 || o > len(b)-extent {
			panic("darknet: gemm B row outside its operand")
		}
	}
	s.blocked(fork, write, m, k, n, a, b, rb, c)
}

// gemmFork holds one forking GEMM's operands for its par.For bodies.
// The bodies are bound once, when the pool makes the gemmFork, so a
// fork allocates nothing.
type gemmFork struct {
	s                  gemmShape
	write              bool
	m, k, n            int
	a, b, c            []float32
	rb                 rowsB
	rows, panels, cols func(lo, hi int)
}

var gemmForks = sync.Pool{New: func() any {
	g := new(gemmFork)
	g.rows = func(lo, hi int) { g.tile(lo, hi, 0, g.n) }
	g.panels = func(lo, hi int) { g.tile(lo*tbPanel, min(hi*tbPanel, g.m), 0, g.n) }
	g.cols = func(lo, hi int) { g.tile(0, g.m, lo*tbCols, min(hi*tbCols, g.n)) }
	return g
}}

func (g *gemmFork) tile(lo, hi, jlo, jhi int) {
	g.s.tile(live, g.write, g.m, g.k, g.n, g.a, g.b, g.rb, g.c, lo, hi, jlo, jhi)
}

// blocked is run's blocked-kernel leg.
func (s gemmShape) blocked(fork, write bool, m, k, n int, a, b []float32, rb rowsB, c []float32) {
	mGemmBlocked.Inc()
	if !fork || m*k*n < 2*gemmParallelFlops || runtime.GOMAXPROCS(0) == 1 {
		s.tile(live, write, m, k, n, a, b, rb, c, 0, m, 0, n)
		return
	}
	rb.pack = nil
	g := gemmForks.Get().(*gemmFork)
	g.s, g.write, g.m, g.k, g.n, g.a, g.b, g.rb, g.c = s, write, m, k, n, a, b, rb, c
	switch {
	case s != shapeTB:
		par.For(m, minChunk(k*n), g.rows)
	case m >= 2*tbPanel:
		par.For((m+tbPanel-1)/tbPanel, minChunk(tbPanel*k*n), g.panels)
	default: // too few rows for a panel per worker (serving batches): shard columns
		par.For((n+tbCols-1)/tbCols, minChunk(tbCols*m*k), g.cols)
	}
	g.a, g.b, g.c, g.rb = nil, nil, nil, rowsB{}
	gemmForks.Put(g)
}

// tile computes output rows [lo, hi) — of gemmTB, only their columns
// [jlo, jhi) — on tier t's kernels, overwriting them when write is set.
// The axpy micro-kernels under gemm and gemmTA write by starting their
// sums at +0; every other kernel clears its tile and accumulates.
func (s gemmShape) tile(t kernelTier, write bool, m, k, n int, a, b []float32, rb rowsB, c []float32, lo, hi, jlo, jhi int) {
	if s != shapeTB && t >= tierAVX2 {
		ai, ap := k, 1 // gemm: A'[i][p] = a[i*k+p]
		if s == shapeTA {
			ai, ap = 1, m
		}
		axpyRows(t, write, k, n, a, ai, ap, b, rb, c, lo, hi)
		return
	}
	if write {
		for i := lo; i < hi; i++ {
			clear(c[i*n+jlo : i*n+jhi])
		}
	}
	switch {
	case s == shapeTB && t == tierAVX512:
		gemmTBRowsAVX512(k, n, a, b, rb, c, lo, hi, jlo, jhi)
	case s == shapeTB && t == tierAVX2:
		gemmTBRowsAVX2(k, n, a, b, rb, c, lo, hi, jlo, jhi)
	case s == shapeTB:
		gemmTBRowsGo(k, n, a, b, rb, c, lo, hi, jlo, jhi)
	case s == shapeAB:
		gemmRowsGo(k, n, a, b, rb, c, lo, hi)
	default:
		gemmTARowsGo(m, k, n, a, b, rb, c, lo, hi)
	}
}

// packScratch returns n floats for packed A panels: pack's own when it
// is long enough (bp nil), else a scratchPool buffer for putScratch.
func packScratch(pack []float32, n int) (bp *[]float32, pk []float32) {
	if len(pack) >= n {
		return nil, pack[:n]
	}
	bp = scratchPool.Get().(*[]float32)
	return bp, growF32(bp, n)
}

// packPanel2 interleaves two consecutive A rows (row-major, stride k)
// into pk so the micro-kernel reads one sequential stream:
// pk[p*2+ii] = a[(i+ii)*k+p]. Pure data movement — bit-identity of the
// kernels is unaffected.
func packPanel2(k int, a []float32, i int, pk []float32) {
	r0 := a[i*k : i*k+k]
	r1 := a[(i+1)*k : (i+1)*k+k]
	for p := 0; p < k; p++ {
		pk[2*p] = r0[p]
		pk[2*p+1] = r1[p]
	}
}

// The portable kernels below are shaped by two facts about the Go
// compiler on amd64: float32 multiply-add is two uops (no FMA fusion) so every
// kernel is fp-port bound near one madd/cycle, and only 16 float
// registers exist, so wide accumulator tiles (4x4 = 16 accumulators +
// 8 temps) spill to the stack and run slower than the naive loops.
// gemm/gemmTA therefore fuse two output rows over one streamed B row
// (halving B loads; C rows stream through L1), while gemmTB — whose
// scalar form is latency-bound on a single accumulator chain — uses a
// 2x4 register tile of 8 independent dot-product accumulators.

// gemmRowsGo computes rows [lo, hi) of C += A * B (row-major A m x k,
// B k x n, C m x n). Row pairs are packed into an interleaved panel
// and fused over a single sweep of each B row, blocked over the output
// columns so the written C segments stay in L1 while B streams.
//
// Bit-identity with gemmScalar: per output element the additions still
// run in ascending p with the same per-row zero-skip (the fused loop
// runs only when both rows are nonzero at p; otherwise the single
// live row takes the reference loop) — fusing interleaves additions to
// *different* elements only, which cannot change any element's value.
func gemmRowsGo(k, n int, a, b []float32, rb rowsB, c []float32, lo, hi int) {
	bp, pk := packScratch(rb.pack, 2*k)
	i := lo
	for ; i+2 <= hi; i += 2 {
		packPanel2(k, a, i, pk)
		row0 := c[(i+0)*n : (i+0)*n+n]
		row1 := c[(i+1)*n : (i+1)*n+n]
		for jb := 0; jb < n; jb += gemmBlockJ {
			je := jb + gemmBlockJ
			if je > n {
				je = n
			}
			cr0 := row0[jb:je]
			cr1 := row1[jb:je]
			for p := 0; p < k; p++ {
				q := pk[2*p : 2*p+2]
				a0, a1 := q[0], q[1]
				if a0 == 0 && a1 == 0 {
					continue
				}
				brow := b[rb.row(p)+jb : rb.row(p)+je]
				switch {
				case a0 != 0 && a1 != 0:
					for j, bv := range brow {
						cr0[j] += a0 * bv
						cr1[j] += a1 * bv
					}
				case a0 != 0:
					for j, bv := range brow {
						cr0[j] += a0 * bv
					}
				default:
					for j, bv := range brow {
						cr1[j] += a1 * bv
					}
				}
			}
		}
	}
	putScratch(bp)
	// Row tail: the scalar reference loop.
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[rb.row(p) : rb.row(p)+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTARowsGo computes rows [lo, hi) of C += Aᵀ * B (A k x m, B k x n,
// C m x n), fusing two output rows over one streamed B row exactly
// like gemmRowsGo; no packing is needed because a[p*m+i..i+2] is already
// contiguous at fixed p. Per output element the additions run in
// ascending p with the scalar reference's zero-skip.
func gemmTARowsGo(m, k, n int, a, b []float32, rb rowsB, c []float32, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		cr0 := c[(i+0)*n : (i+0)*n+n]
		cr1 := c[(i+1)*n : (i+1)*n+n]
		for p := 0; p < k; p++ {
			aa := a[p*m+i : p*m+i+2]
			a0, a1 := aa[0], aa[1]
			if a0 == 0 && a1 == 0 {
				continue
			}
			brow := b[rb.row(p) : rb.row(p)+n]
			switch {
			case a0 != 0 && a1 != 0:
				for j, bv := range brow {
					cr0[j] += a0 * bv
					cr1[j] += a1 * bv
				}
			case a0 != 0:
				for j, bv := range brow {
					cr0[j] += a0 * bv
				}
			default:
				for j, bv := range brow {
					cr1[j] += a1 * bv
				}
			}
		}
	}
	// Row tail: p-outer reference order over the remaining rows.
	if i < hi {
		for p := 0; p < k; p++ {
			arow := a[p*m+i : p*m+hi]
			brow := b[rb.row(p) : rb.row(p)+n]
			for ii, av := range arow {
				if av == 0 {
					continue
				}
				crow := c[(i+ii)*n : (i+ii)*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// gemmTBRowsGo computes columns [jlo, jhi) of rows [lo, hi) of
// C += A * Bᵀ (A m x k, B n x k, C m x n) with 2x4 register tiles of
// dot products: 8 accumulators start at zero, sweep p in ascending
// order — B's rows segment by segment (see rowsB) — and each is added
// to its C element exactly once at the end: the scalar reference order
// per element. Both operands are read as contiguous runs, so no packing
// is needed.
func gemmTBRowsGo(k, n int, a, b []float32, rb rowsB, c []float32, lo, hi, jlo, jhi int) {
	seg, pitch := rb.seg, rb.seg+rb.skip
	i := lo
	for ; i+2 <= hi; i += 2 {
		ar0 := a[(i+0)*k : (i+0)*k+k]
		ar1 := a[(i+1)*k : (i+1)*k+k]
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			o0, o1, o2, o3 := rb.row(j), rb.row(j+1), rb.row(j+2), rb.row(j+3)
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			for q, pos := 0, 0; q < k; q, pos = q+seg, pos+pitch {
				as0 := ar0[q : q+seg]
				as1 := ar1[q : q+seg][:len(as0)]
				br0 := b[o0+pos : o0+pos+seg][:len(as0)]
				br1 := b[o1+pos : o1+pos+seg][:len(as0)]
				br2 := b[o2+pos : o2+pos+seg][:len(as0)]
				br3 := b[o3+pos : o3+pos+seg][:len(as0)]
				for p, a0 := range as0 {
					a1 := as1[p]
					b0, b1, b2, b3 := br0[p], br1[p], br2[p], br3[p]
					s00 += a0 * b0
					s01 += a0 * b1
					s02 += a0 * b2
					s03 += a0 * b3
					s10 += a1 * b0
					s11 += a1 * b1
					s12 += a1 * b2
					s13 += a1 * b3
				}
			}
			o0, o1 = (i+0)*n+j, (i+1)*n+j
			c[o0] += s00
			c[o0+1] += s01
			c[o0+2] += s02
			c[o0+3] += s03
			c[o1] += s10
			c[o1+1] += s11
			c[o1+2] += s12
			c[o1+3] += s13
		}
		for ; j < jhi; j++ {
			var s0, s1 float32
			for q, pos := 0, rb.row(j); q < k; q, pos = q+seg, pos+pitch {
				as0 := ar0[q : q+seg]
				as1 := ar1[q : q+seg][:len(as0)]
				for p, bv := range b[pos : pos+seg][:len(as0)] {
					s0 += as0[p] * bv
					s1 += as1[p] * bv
				}
			}
			c[(i+0)*n+j] += s0
			c[(i+1)*n+j] += s1
		}
	}
	// Row tail: the scalar reference loop.
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := jlo; j < jhi; j++ {
			var sum float32
			for q, pos := 0, rb.row(j); q < k; q, pos = q+seg, pos+pitch {
				as := arow[q : q+seg]
				for p, bv := range b[pos : pos+seg][:len(as)] {
					sum += as[p] * bv
				}
			}
			crow[j] += sum
		}
	}
}
