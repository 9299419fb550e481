//go:build amd64 && !purego

package darknet

import "plinius/internal/cpuid"

// probeTier returns the fastest kernel tier (kernel_amd64.s) the CPU
// and OS run.
func probeTier() kernelTier {
	switch {
	case !cpuid.AVX2():
		return tierGo
	case !cpuid.AVX512():
		return tierAVX2
	}
	return tierAVX512
}

//go:noescape
func axpyRowAVX2(c, a *float32, aStride int, b *float32, boff *int, k, w int, write bool)

//go:noescape
func axpyRowAVX512(c, a *float32, aStride int, b *float32, boff *int, k, w int, write bool)

//go:noescape
func dotPanelAVX2(pk, b *float32, boff *int, segs, seg, skip int, out *float32)

//go:noescape
func packPanel8AVX2(pk, a *float32, n, stride int)

//go:noescape
func copyRowsAVX2(dst, src *float32, rows, w, dstPitch, srcPitch int)

//go:noescape
func biasLeakyAVX2(v *float32, n int, bias, slope float32)

//go:noescape
func leakyGradSum4AVX2(out, delta *float32, stride, n int, slope float32, sums *float32)

//go:noescape
func maxPool2AVX2(top, bot, dst *float32, idx *int32, n, base, inW int)

// axpyPanelFloats bounds the B panel (k rows x block columns) a column
// block sweeps, so it stays in L1 while every output row passes over it.
const axpyPanelFloats = 6 << 10

// axpyRows computes rows [lo, hi) of C += A' * B — with write set,
// C = A' * B — for B (k x n, rows located by rb) and C (m x n), where
// A'[i][p] = a[i*ai+p*ap]: gemm is ai=k, ap=1 and gemmTA is ai=1,
// ap=m. The axpy kernels read B's rows through a table of offsets:
// rb's own or, for a row-major B, one built on the stack axpyTableRows
// rows at a time. Between those sweeps C is stored and loaded back,
// which is exact, so the sums are the same.
func axpyRows(t kernelTier, write bool, k, n int, a []float32, ai, ap int, b []float32, rb rowsB, c []float32, lo, hi int) {
	if lo >= hi {
		return
	}
	if k == 0 || n == 0 {
		if write {
			clear(c[lo*n : hi*n])
		}
		return
	}
	if rb.off != nil {
		axpySweep(t, write, k, n, a, ai, ap, b, rb.off, c, lo, hi)
		return
	}
	var table [axpyTableRows]int
	for p0 := 0; p0 < k; p0 += axpyTableRows {
		kc := min(axpyTableRows, k-p0)
		for p := range table[:kc] {
			table[p] = (p0 + p) * rb.stride
		}
		axpySweep(t, write && p0 == 0, kc, n, a[p0*ap:], ai, ap, b, table[:kc], c, lo, hi)
	}
}

// axpyTableRows is how many row-major B rows an axpy sweep takes.
const axpyTableRows = 64

// axpySweep is axpyRows for k >= 1 B rows starting at b[off[p]]. It
// runs tier t's axpy micro-kernel, which holds one C row segment in
// registers across the ascending-p sweep, with the reference
// zero-skip; the column block is a multiple of the tier's widest step.
func axpySweep(t kernelTier, write bool, k, n int, a []float32, ai, ap int, b []float32, off []int, c []float32, lo, hi int) {
	step := 64 // floats
	if t == tierAVX512 {
		// Past k = 48 the 128 floor outgrows axpyPanelFloats; at k = 72
		// it still measured faster than a 64 block (README "Performance").
		step = 128
	}
	block := max(step, (axpyPanelFloats/k)&^(step-1))
	for jb := 0; jb < n; jb += block {
		w := min(block, n-jb)
		for i := lo; i < hi; i++ {
			if t == tierAVX512 {
				axpyRowAVX512(&c[i*n+jb], &a[i*ai], ap, &b[jb], &off[0], k, w, write)
			} else {
				axpyRowAVX2(&c[i*n+jb], &a[i*ai], ap, &b[jb], &off[0], k, w, write)
			}
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
func gemmTBRowsAVX2(k, n int, a, b []float32, rb rowsB, c []float32, lo, hi, jlo, jhi int) {
	if n < 8 || k == 0 {
		gemmTBRowsGo(k, n, a, b, rb, c, lo, hi, jlo, jhi)
		return
	}
	bp, pk := packScratch(rb.pack, 8*k)
	var out [64]float32
	var offs [8]int
	for i := lo; i < hi; i += 8 {
		rows := min(8, hi-i)
		if rows < 8 {
			clear(pk)
		}
		packPanel8(k, a, i, rows, pk)
		for j := jlo; j < jhi; j += 8 {
			j0 := min(j, n-8)
			for jj := range offs {
				offs[jj] = rb.row(j0 + jj)
			}
			dotPanelAVX2(&pk[0], &b[0], &offs[0], k/rb.seg, rb.seg, rb.skip, &out[0])
			for jj := j - j0; jj < 8 && j0+jj < jhi; jj++ {
				for l := 0; l < rows; l++ {
					c[(i+l)*n+j0+jj] += out[jj*8+l]
				}
			}
		}
	}
	putScratch(bp)
}

// packPanel8 interleaves the rows A rows from row i (row-major, stride
// k) into the lanes of pk: pk[p*8+l] = a[(i+l)*k+p]. A full panel is
// transposed eight columns at a time by packPanel8AVX2.
func packPanel8(k int, a []float32, i, rows int, pk []float32) {
	p := 0
	if rows == 8 && k >= 8 {
		_, _ = pk[8*k-1], a[(i+8)*k-1]
		p = k &^ 7
		packPanel8AVX2(&pk[0], &a[i*k], p, k)
	}
	for l := 0; l < rows; l++ {
		for q, v := range a[(i+l)*k+p : (i+l)*k+k] {
			pk[(p+q)*8+l] = v
		}
	}
}
