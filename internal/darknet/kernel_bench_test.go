package darknet

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the three GEMM kernels, single-threaded so the
// numbers measure kernel quality rather than pool scheduling. Each
// shape list holds what that kernel actually runs: the repo
// benchmark's training model MNISTConfig(2, 8, 32) (conv forward gemm,
// conv backward gemmTB/gemmTA per sample, connected layer on the whole
// batch), the over-EPC MLP's serving gemmTB at batches 1, 2 and 8, and
// the larger perf-experiment shapes.
var (
	benchShapesAB = []struct{ m, k, n int }{
		{8, 9, 784},    // conv1 forward (per sample)
		{8, 72, 784},   // conv2 forward (per sample)
		{32, 10, 1568}, // connected backward dx
		{32, 144, 196}, // perf-experiment conv2 forward
		{64, 300, 257}, // odd shape crossing block boundaries
	}
	benchShapesTA = []struct{ m, k, n int }{
		{9, 8, 784},    // conv1 backward dcols (per sample)
		{72, 8, 784},   // conv2 backward dcols (per sample)
		{10, 32, 1568}, // connected backward dW
		{64, 300, 257},
	}
	benchShapesTB = []struct{ m, k, n int }{
		{8, 784, 9},     // conv1 backward dW (per sample)
		{8, 784, 72},    // conv2 backward dW (per sample)
		{32, 1568, 10},  // connected forward (training batch)
		{1, 1024, 1024}, // over-EPC MLP, serving batch 1
		{2, 1024, 1024}, // serving batch 2
		{8, 1024, 1024}, // serving batch 8
		{64, 300, 257},
	}
)

// fillRandDense fills v with nonzero random values: trained weights
// and activations are dense, so dense operands are the representative
// speed case (the sparse zero-skip path is covered by the correctness
// tests, which use fillRandSparse).
func fillRandDense(rng *rand.Rand, v []float32) {
	for i := range v {
		v[i] = rng.Float32() + 0.1
	}
}

func benchKernel(b *testing.B, shapes []struct{ m, k, n int }, run func(m, k, n int, a, bb, c []float32)) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		a := make([]float32, s.m*s.k)
		bb := make([]float32, s.k*s.n)
		c := make([]float32, s.m*s.n)
		fillRandDense(rng, a)
		fillRandDense(rng, bb)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(2 * s.m * s.k * s.n)) // multiply-adds as "bytes" => MB/s ~ Mflop/s
			for i := 0; i < b.N; i++ {
				run(s.m, s.k, s.n, a, bb, c)
			}
		})
	}
}

// The un-suffixed benchmarks run the live micro-kernels (AVX2 where
// the CPU has it), *Go the portable blocked kernels, *Scalar the
// reference loops.

func BenchmarkGEMM(b *testing.B) {
	benchKernel(b, benchShapesAB, func(m, k, n int, a, bb, c []float32) { shapeAB.tile(m, k, n, a, bb, c, 0, m, 0, n) })
}

func BenchmarkGEMMGo(b *testing.B) {
	benchKernel(b, benchShapesAB, func(m, k, n int, a, bb, c []float32) { gemmRowsGo(k, n, a, bb, c, 0, m) })
}

func BenchmarkGEMMScalar(b *testing.B) { benchKernel(b, benchShapesAB, gemmScalar) }

func BenchmarkGEMMTA(b *testing.B) {
	benchKernel(b, benchShapesTA, func(m, k, n int, a, bb, c []float32) { shapeTA.tile(m, k, n, a, bb, c, 0, m, 0, n) })
}

func BenchmarkGEMMTAGo(b *testing.B) {
	benchKernel(b, benchShapesTA, func(m, k, n int, a, bb, c []float32) { gemmTARowsGo(m, k, n, a, bb, c, 0, m) })
}

func BenchmarkGEMMTAScalar(b *testing.B) { benchKernel(b, benchShapesTA, gemmTAScalar) }

func BenchmarkGEMMTB(b *testing.B) {
	benchKernel(b, benchShapesTB, func(m, k, n int, a, bb, c []float32) { shapeTB.tile(m, k, n, a, bb, c, 0, m, 0, n) })
}

func BenchmarkGEMMTBGo(b *testing.B) {
	benchKernel(b, benchShapesTB, func(m, k, n int, a, bb, c []float32) { gemmTBRowsGo(k, n, a, bb, c, 0, m, 0, n) })
}

func BenchmarkGEMMTBScalar(b *testing.B) { benchKernel(b, benchShapesTB, gemmTBScalar) }

// BenchmarkTrainBatchMNIST is one SGD iteration of the repo
// benchmark's training model at the default kernel parallelism.
func BenchmarkTrainBatchMNIST(b *testing.B) {
	net, x, y := mnistTrainNet(b)
	if _, err := net.TrainBatch(x, y, net.Config.Batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(x, y, net.Config.Batch); err != nil {
			b.Fatal(err)
		}
	}
}
