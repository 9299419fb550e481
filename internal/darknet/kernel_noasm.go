//go:build !amd64 || purego

package darknet

// Without the assembly micro-kernels the row kernels in parallel.go
// always take the portable blocked Go path.
const useAVX2 = false

func axpyRowsAVX2(k, n int, a []float32, ai, ap int, b, c []float32, lo, hi int) {
	panic("darknet: AVX2 kernel on a build without assembly")
}

func gemmTBRowsAVX2(k, n int, a, b, c []float32, lo, hi, jlo, jhi int) {
	panic("darknet: AVX2 kernel on a build without assembly")
}
