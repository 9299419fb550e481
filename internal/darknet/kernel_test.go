package darknet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"plinius/internal/obs"
)

// sameFloat is bit equality, except that any two NaNs match: which
// NaN payload survives a multiply or add of two NaNs depends on operand
// order, which the reference kernels do not pin either.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// kernelSpecials are the values the equivalence tests salt operands
// with: signed zeros (the zero-skip, and -0 + 0), infinities and NaN
// (0*Inf under the zero-skip, Inf-Inf), denormals, and magnitudes whose
// products overflow or underflow.
var kernelSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-41,
	3e38, -3e38, 1e-30, 1,
}

// fillKernelOperand fills v with random values: about a quarter exact
// zeros (sparse A must take the zero-skip) and, when specials is set,
// about an eighth drawn from kernelSpecials.
func fillKernelOperand(rng *rand.Rand, v []float32, specials bool) {
	for i := range v {
		switch r := rng.Intn(8); {
		case r < 2:
			v[i] = 0
		case r == 2 && specials:
			v[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		default:
			v[i] = rng.Float32()*2 - 1
		}
	}
}

// offsetSlice returns a length-n slice starting off floats into its
// backing array, so kernel operands are not 32-byte aligned.
func offsetSlice(n, off int) []float32 {
	return make([]float32, n+off)[off:]
}

// checkGEMMKernels runs all three shapes over the same operands (every
// shape reads m*k floats of A, k*n of B and accumulates into m*n of C)
// and requires the portable Go kernels and — where the CPU has them —
// the AVX2 kernels to reproduce the scalar reference bit for bit, both
// for the whole output and for a sub-tile, which must leave the rest of
// C untouched.
func checkGEMMKernels(t testing.TB, m, k, n int, a, b, c []float32, rng *rand.Rand) {
	t.Helper()
	lo, jlo := 0, 0
	hi, jhi := m, n
	if m > 0 {
		lo = rng.Intn(m)
		hi = lo + 1 + rng.Intn(m-lo)
	}
	if n > 0 {
		jlo = rng.Intn(n)
		jhi = jlo + 1 + rng.Intn(n-jlo)
	}
	type impl struct {
		name string
		tile func(s gemmShape, c []float32, lo, hi, jlo, jhi int)
	}
	impls := []impl{{"go", func(s gemmShape, c []float32, lo, hi, jlo, jhi int) {
		switch s {
		case shapeAB:
			gemmRowsGo(k, n, a, b, c, lo, hi)
		case shapeTA:
			gemmTARowsGo(m, k, n, a, b, c, lo, hi)
		default:
			gemmTBRowsGo(k, n, a, b, c, lo, hi, jlo, jhi)
		}
	}}}
	if useAVX2 {
		impls = append(impls, impl{"avx2", func(s gemmShape, c []float32, lo, hi, jlo, jhi int) {
			switch s {
			case shapeAB:
				axpyRowsAVX2(k, n, a, k, 1, b, c, lo, hi)
			case shapeTA:
				axpyRowsAVX2(k, n, a, 1, m, b, c, lo, hi)
			default:
				gemmTBRowsAVX2(k, n, a, b, c, lo, hi, jlo, jhi)
			}
		}})
	}
	names := [...]string{shapeAB: "gemm", shapeTA: "gemmTA", shapeTB: "gemmTB"}
	for s, name := range names {
		s := gemmShape(s)
		want := append([]float32(nil), c...)
		switch s {
		case shapeAB:
			gemmScalar(m, k, n, a, b, want)
		case shapeTA:
			gemmTAScalar(m, k, n, a, b, want)
		default:
			gemmTBScalar(m, k, n, a, b, want)
		}
		for _, im := range impls {
			got := offsetSlice(len(c), 3)
			copy(got, c)
			im.tile(s, got, 0, m, 0, n)
			for i := range want {
				if !sameFloat(want[i], got[i]) {
					t.Fatalf("%s/%s %dx%dx%d: C[%d] = %v (%#08x), scalar %v (%#08x)", name, im.name, m, k, n,
						i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			// Sub-tile: rows [lo,hi), and for gemmTB columns [jlo,jhi).
			tjlo, tjhi := 0, n
			if s == shapeTB {
				tjlo, tjhi = jlo, jhi
			}
			copy(got, c)
			im.tile(s, got, lo, hi, tjlo, tjhi)
			for i := range want {
				exp := c[i]
				if n > 0 && i/n >= lo && i/n < hi && i%n >= tjlo && i%n < tjhi {
					exp = want[i]
				}
				if !sameFloat(exp, got[i]) {
					t.Fatalf("%s/%s %dx%dx%d tile rows [%d,%d) cols [%d,%d): C[%d] = %v, want %v", name, im.name,
						m, k, n, lo, hi, tjlo, tjhi, i, got[i], exp)
				}
			}
		}
	}
}

// kernelCase builds operands for one shape from seed — unaligned, and
// salted with special values when specials is set — and checks them.
func kernelCase(t testing.TB, m, k, n int, seed int64, specials bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := offsetSlice(m*k, 1+rng.Intn(7))
	b := offsetSlice(k*n, 1+rng.Intn(7))
	c := offsetSlice(m*n, 1+rng.Intn(7))
	fillKernelOperand(rng, a, specials)
	fillKernelOperand(rng, b, specials)
	fillKernelOperand(rng, c, specials)
	checkGEMMKernels(t, m, k, n, a, b, c, rng)
}

// kernelEdgeShapes straddle the kernels' internal block edges: the
// 64/16/8-float column steps and masked tail of the AVX2 axpy kernel,
// its L1 panel width, the 8x8 dot panel, and the portable kernel's
// 256-column block.
var kernelEdgeShapes = []struct{ m, k, n int }{
	{1, 255, 255}, {2, 256, 256}, {9, 257, 257},
	{3, 7, 255}, {3, 7, 256}, {3, 7, 257},
	{5, 255, 9}, {5, 256, 9}, {5, 257, 9},
	{8, 9, 784}, {8, 72, 784}, {8, 784, 72}, {72, 8, 784},
	{17, 100, 63}, {17, 100, 64}, {17, 100, 65}, {17, 100, 79}, {17, 100, 81},
	{16, 33, 15}, {7, 33, 16}, {23, 33, 17},
}

// TestGEMMKernelsMatchScalar sweeps n, k over 0..40 at odd and even m,
// the block edges, and special-value operands.
func TestGEMMKernelsMatchScalar(t *testing.T) {
	seed := int64(100)
	for _, m := range []int{1, 2, 3, 8, 9, 17} {
		for k := 0; k <= 40; k++ {
			for n := 0; n <= 40; n++ {
				seed++
				kernelCase(t, m, k, n, seed, (k+n)%2 == 0)
			}
		}
	}
	for _, s := range kernelEdgeShapes {
		kernelCase(t, s.m, s.k, s.n, seed+int64(s.m*s.k*s.n), false)
		kernelCase(t, s.m, s.k, s.n, seed+int64(s.m+s.k+s.n), true)
	}
}

// FuzzGEMMKernels fuzzes shape, seed and raw operand bits through the
// same three-way equivalence, seeded from the deterministic cases.
func FuzzGEMMKernels(f *testing.F) {
	for _, s := range kernelEdgeShapes {
		f.Add(uint16(s.m), uint16(s.k), uint16(s.n), int64(s.k), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f})
	}
	f.Add(uint16(3), uint16(0), uint16(5), int64(1), []byte{})
	f.Add(uint16(1), uint16(40), uint16(8), int64(2), []byte{0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, m16, k16, n16 uint16, seed int64, raw []byte) {
		m, k, n := int(m16%24), int(k16%300), int(n16%300)
		rng := rand.New(rand.NewSource(seed))
		a := offsetSlice(m*k, 1+rng.Intn(7))
		b := offsetSlice(k*n, 1+rng.Intn(7))
		c := offsetSlice(m*n, 1+rng.Intn(7))
		fillKernelOperand(rng, a, seed%2 == 0)
		fillKernelOperand(rng, b, seed%2 == 0)
		fillKernelOperand(rng, c, seed%2 == 0)
		// Raw bit patterns from the fuzzer, dealt round-robin over the
		// three operands.
		for i := 0; i+4 <= len(raw); i += 4 {
			if dst := [][]float32{a, b, c}[i/4%3]; len(dst) > 0 {
				dst[i/12%len(dst)] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			}
		}
		checkGEMMKernels(t, m, k, n, a, b, c, rng)
	})
}

// TestGEMMDispatchShardsMatchScalar drives the forking dispatchers at
// shapes above the parallel threshold — row shards, gemmTB panel
// shards, and the column shards a few-row gemmTB takes — under several
// worker counts.
func TestGEMMDispatchShardsMatchScalar(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 100, 300},  // row shards; gemmTB panel shards
		{35, 257, 129},  // ragged last panel
		{1, 1024, 1030}, // gemmTB column shards, batch 1
		{8, 700, 513},   // gemmTB column shards, one full panel
		{15, 300, 200},  // gemmTB column shards, ragged panel
	}
	withKernelConfigs(t, func(t *testing.T) {
		for i, s := range shapes {
			rng := rand.New(rand.NewSource(int64(900 + i)))
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.k*s.n)
			c := make([]float32, s.m*s.n)
			fillKernelOperand(rng, a, false)
			fillKernelOperand(rng, b, false)
			fillKernelOperand(rng, c, false)
			for _, sh := range []struct {
				name           string
				scalar, kernel func(m, k, n int, a, b, c []float32)
			}{{"gemm", gemmScalar, gemm}, {"gemmTA", gemmTAScalar, gemmTA}, {"gemmTB", gemmTBScalar, gemmTB}} {
				want := append([]float32(nil), c...)
				got := append([]float32(nil), c...)
				sh.scalar(s.m, s.k, s.n, a, b, want)
				sh.kernel(s.m, s.k, s.n, a, b, got)
				for j := range want {
					if !sameFloat(want[j], got[j]) {
						t.Fatalf("%s %dx%dx%d at %d workers: C[%d] = %v, scalar %v", sh.name, s.m, s.k, s.n,
							KernelParallelism(), j, got[j], want[j])
					}
				}
			}
		}
	})
}

// TestGEMMShortOperandPanics: the assembly kernels do no bounds
// checking of their own, so the dispatcher must reject an operand
// shorter than its shape before any kernel runs.
func TestGEMMShortOperandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gemm accepted a C shorter than m*n")
		}
	}()
	gemm(4, 4, 4, make([]float32, 16), make([]float32, 16), make([]float32, 15))
}

// TestKernelISAInfoSeries: exactly one darknet_kernel_isa series is
// exported, it is 1, and its label is KernelISA().
func TestKernelISAInfoSeries(t *testing.T) {
	isa := KernelISA()
	if isa != "avx2" && isa != "go" {
		t.Fatalf("KernelISA() = %q", isa)
	}
	if (isa == "avx2") != useAVX2 {
		t.Fatalf("KernelISA() = %q with useAVX2 = %v", isa, useAVX2)
	}
	var seen int
	for name, v := range obs.Flatten(obs.Default()) {
		if strings.HasPrefix(name, "darknet_kernel_isa") {
			seen++
			if name != "darknet_kernel_isa{isa="+isa+"}" {
				t.Errorf("series %s does not carry isa=%s", name, isa)
			}
			if v != 1 {
				t.Errorf("%s = %v, want 1", name, v)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%d darknet_kernel_isa series, want 1", seen)
	}
}

// mnistTrainNet builds the repo benchmark's training model,
// MNISTConfig(2, 8, 32), with one batch of inputs and one-hot labels.
func mnistTrainNet(tb testing.TB) (net *Network, x, y []float32) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	net, err := ParseConfig(strings.NewReader(MNISTConfig(2, 8, 32)), rng)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	batch := net.Config.Batch
	x = make([]float32, batch*net.InputSize())
	y = make([]float32, batch*net.OutputSize())
	for i := range x {
		x[i] = rng.Float32()
	}
	for b := 0; b < batch; b++ {
		y[b*net.OutputSize()+rng.Intn(net.OutputSize())] = 1
	}
	return net, x, y
}

// TestTrainBatchAllocs bounds a training iteration's allocations: none
// of the per-sample work allocates, so what is left is the fork-join
// bookkeeping of one fan-out per layer pass (was 1,374 per iteration
// with one per GEMM). AllocsPerRun pins GOMAXPROCS to 1, where nothing
// forks; the MemStats pass counts the forking path.
func TestTrainBatchAllocs(t *testing.T) {
	net, x, y := mnistTrainNet(t)
	batch := net.Config.Batch
	step := func() {
		if _, err := net.TrainBatch(x, y, batch); err != nil {
			t.Fatalf("train: %v", err)
		}
	}
	step() // grow the scratch buffers
	if allocs := testing.AllocsPerRun(5, step); allocs > 64 {
		t.Errorf("TrainBatch at GOMAXPROCS=1: %.0f allocs/op, want <= 64", allocs)
	}
	const iters = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if perIter := float64(after.Mallocs-before.Mallocs) / iters; perIter > 64 {
		t.Errorf("TrainBatch at GOMAXPROCS=%d: %.0f allocs/iteration, want <= 64", runtime.GOMAXPROCS(0), perIter)
	}
}

// TestClassifyBatchAllocs: a warmed-up ClassifyBatch allocates only the
// []int it returns.
func TestClassifyBatchAllocs(t *testing.T) {
	net, x, _ := mnistTrainNet(t)
	for _, batch := range []int{1, 8} {
		in := x[:batch*net.InputSize()]
		classify := func() {
			if _, err := net.ClassifyBatch(in, batch); err != nil {
				t.Fatalf("classify: %v", err)
			}
		}
		classify()
		if allocs := testing.AllocsPerRun(20, classify); allocs != 1 {
			t.Errorf("ClassifyBatch(batch %d): %.0f allocs/op, want 1 (the returned classes)", batch, allocs)
		}
	}
}
