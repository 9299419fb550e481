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

// benchKernel runs kernel run of shape s over shapes, handing it B's
// row-major rowsB, built before the timer starts.
func benchKernel(b *testing.B, s gemmShape, shapes []struct{ m, k, n int }, run func(m, k, n int, a, bb []float32, rb rowsB, c []float32)) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		bb := make([]float32, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		fillRandDense(rng, a)
		fillRandDense(rng, bb)
		rb := plainB(s, sh.k, sh.n)
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(2 * sh.m * sh.k * sh.n)) // multiply-adds as "bytes" => MB/s ~ Mflop/s
			for i := 0; i < b.N; i++ {
				run(sh.m, sh.k, sh.n, a, bb, rb, c)
			}
		})
	}
}

// scalarBench adapts a scalar reference kernel to benchKernel.
func scalarBench(kernel func(m, k, n int, a, b, c []float32)) func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
	return func(m, k, n int, a, bb []float32, _ rowsB, c []float32) { kernel(m, k, n, a, bb, c) }
}

// BenchmarkGEMM and BenchmarkGEMMTA run a sub-benchmark per assembly
// tier the CPU has (avx2, avx512), so the 8- and 16-lane axpy kernels
// compare on one machine; on a CPU without them, the portable kernels.
// BenchmarkGEMMTB runs the live micro-kernels, *Go the portable blocked
// kernels, *Scalar the reference loops.

func BenchmarkGEMM(b *testing.B) { benchTiers(b, shapeAB, benchShapesAB) }

func BenchmarkGEMMGo(b *testing.B) {
	benchKernel(b, shapeAB, benchShapesAB, func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
		gemmRowsGo(k, n, a, bb, rb, c, 0, m)
	})
}

func BenchmarkGEMMScalar(b *testing.B) {
	benchKernel(b, shapeAB, benchShapesAB, scalarBench(gemmScalar))
}

func BenchmarkGEMMTA(b *testing.B) { benchTiers(b, shapeTA, benchShapesTA) }

func BenchmarkGEMMTAGo(b *testing.B) {
	benchKernel(b, shapeTA, benchShapesTA, func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
		gemmTARowsGo(m, k, n, a, bb, rb, c, 0, m)
	})
}

func BenchmarkGEMMTAScalar(b *testing.B) {
	benchKernel(b, shapeTA, benchShapesTA, scalarBench(gemmTAScalar))
}

// benchTiers runs shape s over shapes on each tier from AVX2 (or the
// live tier, if lower) up to the live tier.
func benchTiers(b *testing.B, s gemmShape, shapes []struct{ m, k, n int }) {
	for t := min(tierAVX2, live); t <= live; t++ {
		b.Run(t.String(), func(b *testing.B) {
			benchKernel(b, s, shapes, func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
				s.tile(t, false, m, k, n, a, bb, rb, c, 0, m, 0, n)
			})
		})
	}
}

func BenchmarkGEMMTB(b *testing.B) {
	benchKernel(b, shapeTB, benchShapesTB, func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
		shapeTB.tile(live, false, m, k, n, a, bb, rb, c, 0, m, 0, n)
	})
}

func BenchmarkGEMMTBGo(b *testing.B) {
	benchKernel(b, shapeTB, benchShapesTB, func(m, k, n int, a, bb []float32, rb rowsB, c []float32) {
		gemmTBRowsGo(k, n, a, bb, rb, c, 0, m, 0, n)
	})
}

func BenchmarkGEMMTBScalar(b *testing.B) {
	benchKernel(b, shapeTB, benchShapesTB, scalarBench(gemmTBScalar))
}

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

// BenchmarkConvMNIST times the repository benchmark's two conv layers
// (MNISTConfig(2, 8, 32)) at its batch of 32, one sub-benchmark per
// layer and pass, so a profile of BenchmarkTrainBatchMNIST can be split
// by layer. A backward iteration runs the training forward it reads
// with the timer stopped; conv1's backward leaves out the input
// gradient, as TrainBatch does for the first layer.
func BenchmarkConvMNIST(b *testing.B) {
	net, x, _ := mnistTrainNet(b)
	batch := net.Config.Batch
	rng := rand.New(rand.NewSource(12))
	in := x
	for i, name := range []string{"conv1", "conv2"} {
		conv := net.Layers[i].(*Conv)
		delta := make([]float32, batch*conv.out.Size())
		fillRandDense(rng, delta)
		grad := make([]float32, len(delta))
		forward := func() {
			if _, err := conv.Forward(in, batch, true); err != nil {
				b.Fatal(err)
			}
		}
		forward() // grow the layer's buffers
		b.Run(name+"/forward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forward()
			}
		})
		b.Run(name+"/backward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				forward()
				copy(grad, delta)
				b.StartTimer()
				if _, err := conv.backward(grad, name != "conv1"); err != nil {
					b.Fatal(err)
				}
			}
		})
		out, err := conv.Forward(in, batch, false)
		if err != nil {
			b.Fatal(err)
		}
		in = append([]float32(nil), out...)
	}
}
