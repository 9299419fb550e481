package darknet

import (
	"math/rand"
	"runtime"
	"testing"
)

// fillRandSparse fills v with random values, zeroing ~1/4 of them so
// the kernels' zero-skip paths are exercised (the skip must not change
// results bit for bit). Half the zeros are −0, whose sign a sum that
// starts from +0 must not keep.
func fillRandSparse(rng *rand.Rand, v []float32) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = [2]float32{0, negZero}[rng.Intn(2)]
			continue
		}
		v[i] = rng.Float32()*2 - 1
	}
}

// gemmShapes covers odd sizes, single rows/columns (batch=1), and
// degenerate zero-row/zero-column shapes.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 13},   // batch = 1
	{3, 1, 5},    // inner dim 1
	{5, 9, 1},    // single output column
	{7, 11, 17},  // odd everything
	{16, 16, 16}, // exact blocks
	{33, 65, 129},
	{64, 300, 257}, // crosses the column-block boundary
	{129, 31, 510}, // above the parallel threshold
	{0, 5, 5},      // zero rows: no output at all
	{4, 0, 4},      // zero inner dim: C unchanged
	{4, 4, 0},      // zero columns
	// The AVX-512 gemmTB kernel's edges: 1-3, 7-9 and 15 A rows (its
	// 1/2/4/8-row sweeps and passes of eight), 1, 10, 16, 17 and 1000
	// outputs (16-lane blocks and their masked tail) and k of 1, 15,
	// 16, 17 and 1024 (16-float tiles and the masked k tail). The
	// serving shapes fork over column blocks.
	{1, 1024, 1000}, // serving batch 1
	{2, 1024, 1000}, // serving batch 2
	{3, 17, 17},
	{7, 15, 16},
	{8, 16, 17},
	{9, 1, 10},
	{15, 1024, 16},
	{2, 15, 1},
	{1, 16, 10},
	{7, 17, 1000},
	{15, 1, 17},
	{3, 1024, 10},
	{9, 16, 1000},
	{8, 15, 1000},
}

// withKernelConfigs runs body at GOMAXPROCS 1, 2, 3 and 8, so both the
// inline and the sharded dispatch paths are covered on any machine, on
// each assembly tier the CPU runs (live set to it; an AVX-512 CPU runs
// the AVX2 kernels too), or without assembly on the portable kernels.
func withKernelConfigs(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(l kernelTier) { live = l }(live)
	for tier := min(tierAVX2, probeTier()); tier <= probeTier(); tier++ {
		live = tier
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			body(t)
		}
	}
}

// withTiers runs body once on each kernel tier the CPU runs, from the
// portable Go kernels up, with live set to that tier, and restores it.
func withTiers(body func(tier kernelTier)) {
	defer func(l kernelTier) { live = l }(live)
	for tier := tierGo; tier <= probeTier(); tier++ {
		live = tier
		body(tier)
	}
}

// TestGEMMBitIdenticalToScalar asserts the blocked parallel kernels
// reproduce the scalar reference with tolerance zero: same additions,
// same order, per output element.
func TestGEMMBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	withKernelConfigs(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.k*s.n)
			cWant := make([]float32, s.m*s.n)
			cGot := make([]float32, s.m*s.n)
			fillRandSparse(rng, a)
			fillRandSparse(rng, b)
			// Non-zero initial C: the kernels accumulate.
			fillRandSparse(rng, cWant)
			copy(cGot, cWant)

			gemmScalar(s.m, s.k, s.n, a, b, cWant)
			gemm(s.m, s.k, s.n, a, b, cGot)
			for i := range cWant {
				if !sameFloat(cWant[i], cGot[i]) {
					t.Fatalf("gemm/%s %dx%dx%d at GOMAXPROCS %d: C[%d] = %v, scalar %v", live, s.m, s.k, s.n,
						runtime.GOMAXPROCS(0), i, cGot[i], cWant[i])
				}
			}
		}
	})
}

func TestGEMMTABitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	withKernelConfigs(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			a := make([]float32, s.k*s.m) // A is k x m
			b := make([]float32, s.k*s.n)
			cWant := make([]float32, s.m*s.n)
			cGot := make([]float32, s.m*s.n)
			fillRandSparse(rng, a)
			fillRandSparse(rng, b)
			fillRandSparse(rng, cWant)
			copy(cGot, cWant)

			gemmTAScalar(s.m, s.k, s.n, a, b, cWant)
			gemmTA(s.m, s.k, s.n, a, b, cGot)
			for i := range cWant {
				if !sameFloat(cWant[i], cGot[i]) {
					t.Fatalf("gemmTA/%s %dx%dx%d at GOMAXPROCS %d: C[%d] = %v, scalar %v", live, s.m, s.k, s.n,
						runtime.GOMAXPROCS(0), i, cGot[i], cWant[i])
				}
			}
		}
	})
}

func TestGEMMTBBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	withKernelConfigs(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.n*s.k) // B is n x k
			cWant := make([]float32, s.m*s.n)
			cGot := make([]float32, s.m*s.n)
			fillRandSparse(rng, a)
			fillRandSparse(rng, b)
			fillRandSparse(rng, cWant)
			copy(cGot, cWant)

			gemmTBScalar(s.m, s.k, s.n, a, b, cWant)
			gemmTB(s.m, s.k, s.n, a, b, cGot)
			for i := range cWant {
				if !sameFloat(cWant[i], cGot[i]) {
					t.Fatalf("gemmTB/%s %dx%dx%d at GOMAXPROCS %d: C[%d] = %v, scalar %v", live, s.m, s.k, s.n,
						runtime.GOMAXPROCS(0), i, cGot[i], cWant[i])
				}
			}
		}
	})
}

// TestTrainingBitIdenticalScalarVsParallel trains two identically
// seeded networks — one on the scalar reference kernels, one on the
// blocked parallel kernels at several GOMAXPROCS values — and requires
// bit-identical losses and parameters after several iterations.
func TestTrainingBitIdenticalScalarVsParallel(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(21))
		net, err := NewBuilder(NetConfig{
			Batch: 8, LearningRate: 0.1, Momentum: 0.9,
			Channels: 1, Height: 12, Width: 12,
		}, rng).
			Conv(ConvConfig{Filters: 4, Size: 3, Stride: 1, Pad: 1, Activation: LeakyReLU}).
			MaxPool(2, 2).
			Connected(10, Linear).
			Softmax().
			Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return net
	}
	data := rand.New(rand.NewSource(5))
	batch, in, classes := 8, 12*12, 10
	x := make([]float32, batch*in)
	y := make([]float32, batch*classes)
	for i := range x {
		x[i] = data.Float32()
	}
	for b := 0; b < batch; b++ {
		y[b*classes+data.Intn(classes)] = 1
	}

	run := func(scalar bool) (*Network, []float32) {
		SetScalarKernels(scalar)
		defer SetScalarKernels(false)
		net := build()
		var losses []float32
		for i := 0; i < 4; i++ {
			loss, err := net.TrainBatch(x, y, batch)
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			losses = append(losses, loss)
		}
		return net, losses
	}
	netS, lossS := run(true)
	withKernelConfigs(t, func(t *testing.T) {
		netP, lossP := run(false)
		for i := range lossS {
			if lossS[i] != lossP[i] {
				t.Fatalf("iteration %d loss: scalar %v parallel %v", i, lossS[i], lossP[i])
			}
		}
		for li := range netS.Layers {
			ps, pp := netS.Layers[li].Params(), netP.Layers[li].Params()
			for bi := range ps {
				for i := range ps[bi] {
					if ps[bi][i] != pp[bi][i] {
						t.Fatalf("layer %d buffer %d param %d: scalar %v parallel %v",
							li, bi, i, ps[bi][i], pp[bi][i])
					}
				}
			}
		}
	})
}

// TestScratchReuseStableResults drives the same forward pass twice
// with different inputs and checks the second result is unaffected by
// buffer reuse, including after a batch-size change.
func TestScratchReuseStableResults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewBuilder(NetConfig{Batch: 4, LearningRate: 0.1, Channels: 1, Height: 8, Width: 8}, rng).
		Conv(ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1}).
		Connected(5, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in := net.InputSize()
	x4 := make([]float32, 4*in)
	x1 := make([]float32, in)
	for i := range x4 {
		x4[i] = rng.Float32()
	}
	copy(x1, x4[:in])

	// Reference for batch 1 before any buffers exist.
	ref, err := net.Forward(x1, 1, false)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	want := append([]float32(nil), ref...)

	// Grow to batch 4, then shrink back to 1: the reused buffers must
	// give the same batch-1 answer.
	if _, err := net.Forward(x4, 4, false); err != nil {
		t.Fatalf("forward batch 4: %v", err)
	}
	got, err := net.Forward(x1, 1, false)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch-size cycling changed output[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}
