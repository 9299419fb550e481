//go:build !amd64 || purego

package darknet

// Without the assembly micro-kernels the row kernels in parallel.go
// always take the portable blocked Go path.
func probeTier() kernelTier { return tierGo }

func axpyRows(t kernelTier, write bool, k, n int, a []float32, ai, ap int, b, c []float32, lo, hi int) {
	panic("darknet: axpy kernel on a build without assembly")
}

func gemmTBRowsAVX2(k, n int, a, b, c []float32, lo, hi, jlo, jhi int) {
	panic("darknet: AVX2 kernel on a build without assembly")
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
