package darknet

// Multi-core GEMM kernels. The three matrix-multiply shapes behind
// every Forward/Backward (gemm, gemmTA, gemmTB in darknet.go) dispatch
// here. Under each shape sit two interchangeable single-threaded
// kernels: AVX2 micro-kernels (kernel_amd64.s, selected once at init by
// a CPUID probe) that keep a C row segment — or a panel of eight dot
// products — in vector registers across the whole inner-product sweep,
// and the portable register-blocked Go kernels below, which every
// other platform and -tags purego run. parallelFor shards output rows
// (for a gemmTB with few rows, output columns) across a bounded worker
// pool; the layer passes use the same pool to fork once over the
// samples of a batch instead of once per GEMM.
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

// KernelISA names the live blocked kernels: "avx2" (assembly) or "go".
func KernelISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// kernelWorkers is the configured kernel parallelism; 0 means "use
// GOMAXPROCS at call time". It is always clamped to GOMAXPROCS, since
// compute-bound GEMM shards beyond the CPU count only add scheduling
// overhead.
var kernelWorkers atomic.Int32

// scalarKernels forces the single-threaded scalar reference kernels,
// for benchmarks that measure the parallel speedup and for debugging.
var scalarKernels atomic.Bool

// SetKernelParallelism bounds the GEMM worker pool to n goroutines
// (clamped to [1, GOMAXPROCS] at call time); n <= 0 restores the
// default, GOMAXPROCS. Safe to call concurrently with running kernels;
// in-flight calls keep their pool size.
func SetKernelParallelism(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// KernelParallelism returns the effective worker bound for the next
// kernel dispatch.
func KernelParallelism() int {
	w := int(kernelWorkers.Load())
	max := runtime.GOMAXPROCS(0)
	if w <= 0 || w > max {
		return max
	}
	return w
}

// SetScalarKernels toggles the scalar reference kernels. The blocked
// parallel kernels are bit-identical, so this only changes speed; it
// exists for before/after benchmarking (BenchmarkTrainIteration,
// plinius-bench -exp perf).
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

// minChunk returns the fewest items, at flopsPerItem multiply-adds
// each, that carry gemmParallelFlops.
func minChunk(flopsPerItem int) int { return max(1, gemmParallelFlops/max(1, flopsPerItem)) }

// kernelChunks returns how many chunks parallelFor(n, minChunk, ·)
// runs: one under the scalar reference kernels, which are
// single-threaded by definition. Callers test it for 1 to run inline —
// a func literal handed to parallelFor escapes, so it would be
// allocated even when nothing forks.
func kernelChunks(n, minChunk int) int {
	if n <= 0 {
		return 0
	}
	if scalarKernels.Load() {
		return 1
	}
	return min(KernelParallelism(), (n+max(minChunk, 1)-1)/max(minChunk, 1))
}

// parallelFor shards [0, n) into contiguous chunks and runs body on up
// to KernelParallelism goroutines, blocking until all chunks finish.
// minChunk bounds the smallest chunk, so tiny trailing shards don't pay
// a goroutine each. body must not panic across chunks it does not own.
// The last chunk runs on the caller, so with one worker (or
// n <= minChunk) nothing is spawned.
func parallelFor(n, minChunk int, body func(lo, hi int)) {
	w := kernelChunks(n, minChunk)
	if w <= 1 {
		if w == 1 {
			body(0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, lo+chunk)
	}
	body(lo, n)
	wg.Wait()
}

// scratchPool recycles per-worker kernel scratch (packed A panels, a
// column-gradient matrix) so the hot paths stay allocation-free.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// gemmShape is one of the three matrix-multiply shapes.
type gemmShape int

const (
	shapeAB gemmShape = iota // C += A * B
	shapeTA                  // C += Aᵀ * B
	shapeTB                  // C += A * Bᵀ
)

// tbPanel is the granule of a gemmTB shard: the AVX2 kernel's lanes
// are eight output rows against eight B rows.
const tbPanel = 8

// run executes one m x n GEMM with inner dimension k: on the scalar
// reference when that is forced, otherwise on the blocked kernels,
// sharded across the worker pool when fork is set and the multiply is
// big enough. Layer passes that fan out over samples pass fork=false.
func (s gemmShape) run(fork bool, m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("darknet: gemm operand shorter than its shape")
	}
	if scalarKernels.Load() {
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
	mGemmBlocked.Inc()
	switch {
	case !fork || m*k*n < 2*gemmParallelFlops || KernelParallelism() == 1:
		s.tile(m, k, n, a, b, c, 0, m, 0, n)
	case s != shapeTB:
		parallelFor(m, minChunk(k*n), func(lo, hi int) {
			s.tile(m, k, n, a, b, c, lo, hi, 0, n)
		})
	case m >= 2*tbPanel:
		parallelFor((m+tbPanel-1)/tbPanel, minChunk(tbPanel*k*n), func(lo, hi int) {
			s.tile(m, k, n, a, b, c, lo*tbPanel, min(hi*tbPanel, m), 0, n)
		})
	default: // too few rows for a panel per worker (serving batches): shard columns
		parallelFor((n+tbPanel-1)/tbPanel, minChunk(tbPanel*m*k), func(lo, hi int) {
			s.tile(m, k, n, a, b, c, 0, m, lo*tbPanel, min(hi*tbPanel, n))
		})
	}
}

// tile computes output rows [lo, hi) — of gemmTB, only their columns
// [jlo, jhi) — on the AVX2 micro-kernels when the CPU has them, else on
// the portable Go kernels.
func (s gemmShape) tile(m, k, n int, a, b, c []float32, lo, hi, jlo, jhi int) {
	switch {
	case s == shapeTB && useAVX2:
		gemmTBRowsAVX2(k, n, a, b, c, lo, hi, jlo, jhi)
	case s == shapeTB:
		gemmTBRowsGo(k, n, a, b, c, lo, hi, jlo, jhi)
	case s == shapeAB && useAVX2:
		axpyRowsAVX2(k, n, a, k, 1, b, c, lo, hi)
	case s == shapeAB:
		gemmRowsGo(k, n, a, b, c, lo, hi)
	case useAVX2:
		axpyRowsAVX2(k, n, a, 1, m, b, c, lo, hi)
	default:
		gemmTARowsGo(m, k, n, a, b, c, lo, hi)
	}
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
func gemmRowsGo(k, n int, a, b, c []float32, lo, hi int) {
	bp := scratchPool.Get().(*[]float32)
	pk := growF32(bp, 2*k)
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
				brow := b[p*n+jb : p*n+je]
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
	scratchPool.Put(bp)
	// Row tail: the scalar reference loop.
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
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
func gemmTARowsGo(m, k, n int, a, b, c []float32, lo, hi int) {
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
			brow := b[p*n : p*n+n]
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
			brow := b[p*n : p*n+n]
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
// C += A * Bᵀ (A m x k, B n x k, C m x n) with 2x4 register tiles of dot products: 8 accumulators
// start at zero, sweep p in ascending order, and each is added to its
// C element exactly once at the end — the scalar reference order per
// element. Both operands are read as contiguous rows, so no packing is
// needed.
func gemmTBRowsGo(k, n int, a, b, c []float32, lo, hi, jlo, jhi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		ar0 := a[(i+0)*k : (i+0)*k+k]
		ar1 := a[(i+1)*k : (i+1)*k+k]
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			br0 := b[(j+0)*k : (j+0)*k+k]
			br1 := b[(j+1)*k : (j+1)*k+k]
			br2 := b[(j+2)*k : (j+2)*k+k]
			br3 := b[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			for p := 0; p < k; p++ {
				a0, a1 := ar0[p], ar1[p]
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
			o0, o1 := (i+0)*n+j, (i+1)*n+j
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
			brow := b[j*k : j*k+k]
			var s0, s1 float32
			for p := 0; p < k; p++ {
				bv := brow[p]
				s0 += ar0[p] * bv
				s1 += ar1[p] * bv
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
			brow := b[j*k : j*k+k]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] += sum
		}
	}
}
