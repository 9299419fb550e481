//go:build amd64 && !purego

package darknet

// useAVX2 selects the AVX2 micro-kernels (kernel_amd64.s) under
// gemmShape.tile; probed once at init.
var useAVX2 = cpuHasAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM state across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XCR0: SSE and AVX state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func axpyRowAVX2(c, a *float32, aStride int, b *float32, bStride, k, w int)

//go:noescape
func dotPanelAVX2(pk, b *float32, bStride, k int, out *float32)

//go:noescape
func biasLeakyAVX2(v *float32, n int, bias, slope float32)

//go:noescape
func leakyGradSum4AVX2(out, delta *float32, stride, n int, slope float32, sums *float32)

//go:noescape
func maxPool2AVX2(top, bot, dst *float32, idx *int32, n, base, inW int)

// addRowAVX2 is addRow on the axpy micro-kernel at k = 1 with A = {1}:
// multiplying by 1 is exact, so each element gets exactly dst + src.
// src must not be empty.
func addRowAVX2(dst, src []float32) {
	axpyRowAVX2(&dst[0], &rowAddScale, 0, &src[0], 0, 1, len(src))
}

var rowAddScale = float32(1)

// axpyPanelFloats bounds the B panel (k rows x block columns) a column
// block sweeps, so it stays in L1 while every output row passes over it.
const axpyPanelFloats = 6 << 10

// axpyRowsAVX2 computes rows [lo, hi) of C += A' * B for B (k x n) and
// C (m x n), where A'[i][p] = a[i*ai+p*ap]: gemm is ai=k, ap=1 and
// gemmTA is ai=1, ap=m. The micro-kernel holds one C row segment in
// registers across the ascending-p sweep, with the reference zero-skip.
func axpyRowsAVX2(k, n int, a []float32, ai, ap int, b, c []float32, lo, hi int) {
	if k == 0 || n == 0 {
		return
	}
	block := max(64, (axpyPanelFloats/k)&^63)
	for jb := 0; jb < n; jb += block {
		w := min(block, n-jb)
		for i := lo; i < hi; i++ {
			axpyRowAVX2(&c[i*n+jb], &a[i*ai], ap, &b[jb], n, k, w)
		}
	}
}

// gemmTBRowsAVX2 is gemmTBRowsGo on the dot-panel micro-kernel. Lanes
// are eight output rows: their A rows are packed lane-interleaved once
// per panel, then each block of eight B rows is swept once, giving 64
// dot products that sum p ascending from zero and are added to C once —
// the reference order. A block that would run past B's last row is
// shifted back to end on it and only its new columns are added. Fewer
// than eight B rows (or k == 0, where the reference still adds its zero
// sums) take the portable kernel.
func gemmTBRowsAVX2(k, n int, a, b, c []float32, lo, hi, jlo, jhi int) {
	if n < 8 || k == 0 {
		gemmTBRowsGo(k, n, a, b, c, lo, hi, jlo, jhi)
		return
	}
	bp := scratchPool.Get().(*[]float32)
	pk := growF32(bp, 8*k)
	var out [64]float32
	for i := lo; i < hi; i += 8 {
		rows := min(8, hi-i)
		if rows < 8 {
			clear(pk)
		}
		for l := 0; l < rows; l++ {
			for p, v := range a[(i+l)*k : (i+l)*k+k] {
				pk[p*8+l] = v
			}
		}
		for j := jlo; j < jhi; j += 8 {
			j0 := min(j, n-8)
			dotPanelAVX2(&pk[0], &b[j0*k], k, k, &out[0])
			for jj := j - j0; jj < 8 && j0+jj < jhi; jj++ {
				for l := 0; l < rows; l++ {
					c[(i+l)*n+j0+jj] += out[jj*8+l]
				}
			}
		}
	}
	scratchPool.Put(bp)
}
