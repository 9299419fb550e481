//go:build !amd64 || purego

package darknet

// Without the assembly micro-kernels the row kernels in parallel.go
// always take the portable blocked Go path.
func probeTier() kernelTier { return tierGo }

func axpySweep(t kernelTier, write bool, k, n int, a []float32, ai, ap int, b []float32, off []int, c []float32, lo, hi int) {
	panic("darknet: axpy kernel on a build without assembly")
}

func axpyRows(t kernelTier, write bool, k, n int, a []float32, ai, ap int, b []float32, rb rowsB, c []float32, lo, hi int) {
	panic("darknet: axpy kernel on a build without assembly")
}

func gemmTBRowsAVX2(k, n int, a, b []float32, rb rowsB, c []float32, lo, hi, jlo, jhi int) {
	panic("darknet: AVX2 kernel on a build without assembly")
}

func gemmTBRowsAVX512(k, n int, a, b []float32, rb rowsB, c []float32, lo, hi, jlo, jhi int) {
	panic("darknet: AVX-512 kernel on a build without assembly")
}

func biasLeakyAVX2(v *float32, n int, bias, slope float32) {
	panic("darknet: AVX2 kernel on a build without assembly")
}

func maxPool2AVX2(top, bot, dst *float32, idx *int32, n, base, inW int) {
	panic("darknet: AVX2 kernel on a build without assembly")
}

func leakyGradSum4AVX2(out, delta *float32, stride, n int, slope float32, sums *float32) {
	panic("darknet: AVX2 kernel on a build without assembly")
}

func copyRowsAVX2(dst, src *float32, rows, w, dstPitch, srcPitch int) {
	panic("darknet: AVX2 kernel on a build without assembly")
}
