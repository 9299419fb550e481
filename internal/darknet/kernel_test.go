package darknet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// plainB returns the rowsB of shape s's row-major B operand for a GEMM
// with inner dimension k and n output columns.
func plainB(s gemmShape, k, n int) rowsB {
	if s == shapeTB {
		return rowMajor(k)
	}
	return rowMajor(n)
}

// offsetSlice returns a length-n slice starting off floats into its
// backing array, so kernel operands are not 32-byte aligned.
func offsetSlice(n, off int) []float32 {
	return make([]float32, n+off)[off:]
}

// checkGEMMKernels runs all three shapes over the same operands (every
// shape reads m*k floats of A, k*n of B and accumulates into m*n of C)
// and requires every kernel tier the CPU runs — the portable Go kernels
// and, where the CPU has them, the AVX2 and AVX-512 ones — to reproduce
// the scalar reference bit for bit: for the whole output, for a
// sub-tile, which must leave the rest of C untouched, and writing into
// a C poisoned with NaN and −0, which must come out as the reference
// accumulating into a cleared C.
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
	poison := make([]float32, len(c))
	for i := range poison {
		poison[i] = [2]float32{float32(math.NaN()), negZero}[rng.Intn(2)]
	}
	names := [...]string{shapeAB: "gemm", shapeTA: "gemmTA", shapeTB: "gemmTB"}
	scalar := [...]func(m, k, n int, a, b, c []float32){shapeAB: gemmScalar, shapeTA: gemmTAScalar, shapeTB: gemmTBScalar}
	for s, name := range names {
		s := gemmShape(s)
		want := append([]float32(nil), c...)
		scalar[s](m, k, n, a, b, want)
		written := make([]float32, len(c))
		scalar[s](m, k, n, a, b, written)
		for tier := tierGo; tier <= live; tier++ {
			got := offsetSlice(len(c), 3)
			copy(got, c)
			s.tile(tier, false, m, k, n, a, b, plainB(s, k, n), got, 0, m, 0, n)
			for i := range want {
				if !sameFloat(want[i], got[i]) {
					t.Fatalf("%s/%s %dx%dx%d: C[%d] = %v (%#08x), scalar %v (%#08x)", name, tier, m, k, n,
						i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			copy(got, poison)
			s.tile(tier, true, m, k, n, a, b, plainB(s, k, n), got, 0, m, 0, n)
			for i := range written {
				if !sameFloat(written[i], got[i]) {
					t.Fatalf("%s/%s %dx%dx%d written over NaN/-0: C[%d] = %v (%#08x), scalar into zeros %v (%#08x)",
						name, tier, m, k, n, i, got[i], math.Float32bits(got[i]), written[i], math.Float32bits(written[i]))
				}
			}
			// Sub-tile: rows [lo,hi), and for gemmTB columns [jlo,jhi).
			tjlo, tjhi := 0, n
			if s == shapeTB {
				tjlo, tjhi = jlo, jhi
			}
			for _, write := range []bool{false, true} {
				copy(got, c)
				s.tile(tier, write, m, k, n, a, b, plainB(s, k, n), got, lo, hi, tjlo, tjhi)
				for i := range want {
					exp := c[i]
					if n > 0 && i/n >= lo && i/n < hi && i%n >= tjlo && i%n < tjhi {
						exp = want[i]
						if write {
							exp = written[i]
						}
					}
					if !sameFloat(exp, got[i]) {
						t.Fatalf("%s/%s %dx%dx%d tile rows [%d,%d) cols [%d,%d), write %v: C[%d] = %v, want %v", name, tier,
							m, k, n, lo, hi, tjlo, tjhi, write, i, got[i], exp)
					}
				}
			}
			// B's rows through an offset table, as the shifted-GEMM
			// convolution lays them out.
			bs, rb := scatterB(rng, s, k, n, b)
			for _, write := range []bool{false, true} {
				exp := want
				copy(got, c)
				if write {
					exp = written
					copy(got, poison)
				}
				s.tile(tier, write, m, k, n, a, bs, rb, got, 0, m, 0, n)
				for i := range exp {
					if !sameFloat(exp[i], got[i]) {
						t.Fatalf("%s/%s %dx%dx%d B rows at %v seg %d skip %d, write %v: C[%d] = %v, want %v", name, tier,
							m, k, n, rb.off, rb.seg, rb.skip, write, i, got[i], exp[i])
					}
				}
			}
		}
	}
}

// scatterB lays shape s's row-major B out as a rowsB with an offset
// table can describe it: rows in shuffled order, with gaps between
// them and, for gemmTB, each row in segments with gaps between those.
// Every gap holds NaN, which a kernel reading it would carry into C.
func scatterB(rng *rand.Rand, s gemmShape, k, n int, b []float32) ([]float32, rowsB) {
	rows, length := k, n
	rb := rowsB{off: make([]int, rows), seg: length}
	if s == shapeTB {
		rows, length = n, k
		rb = rowsB{off: make([]int, rows), seg: length, skip: rng.Intn(3)}
		for length > 0 {
			if d := 1 + rng.Intn(length); length%d == 0 {
				rb.seg = d
				break
			}
		}
	}
	extent := length
	if rb.seg > 0 {
		extent += (length/rb.seg - 1) * rb.skip
	}
	pos := rng.Intn(3)
	for _, r := range rng.Perm(rows) {
		rb.off[r] = pos
		pos += extent + rng.Intn(4)
	}
	bs := make([]float32, pos+1)
	for i := range bs {
		bs[i] = float32(math.NaN())
	}
	for r := 0; r < rows; r++ {
		for q := 0; q < length; q++ {
			bs[rb.off[r]+q/rb.seg*(rb.seg+rb.skip)+q%rb.seg] = b[r*length+q]
		}
	}
	return bs, rb
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
// the 128-float step and K-masked 64-float steps of the AVX-512 one,
// their L1 panel width, the 8x8 dot panel, the AVX-512 gemmTB block's
// 1/2/4/8-row sweeps, 16-output lanes and 16-float k tiles with their
// masked tails, and the portable kernel's 256-column block.
var kernelEdgeShapes = []struct{ m, k, n int }{
	{1, 1024, 1000}, {2, 1024, 1000}, {15, 1024, 16}, {3, 1024, 10},
	{3, 17, 17}, {7, 15, 16}, {8, 16, 17}, {9, 1, 10}, {2, 15, 1},
	{1, 16, 10}, {7, 17, 1000}, {15, 1, 17}, {9, 16, 1000}, {8, 15, 1000},
	{1, 255, 255}, {2, 256, 256}, {9, 257, 257},
	{3, 7, 255}, {3, 7, 256}, {3, 7, 257},
	{5, 255, 9}, {5, 256, 9}, {5, 257, 9},
	{8, 9, 784}, {8, 72, 784}, {8, 784, 72}, {72, 8, 784},
	{17, 100, 63}, {17, 100, 64}, {17, 100, 65}, {17, 100, 79}, {17, 100, 81},
	{16, 33, 15}, {7, 33, 16}, {23, 33, 17},
	{3, 60, 127}, {4, 61, 128}, {5, 62, 129},
	{6, 9, 143}, {3, 10, 144}, {2, 11, 145},
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
		m, k, n := int(m16%24), int(k16%1025), int(n16%1025)
		if m*k*n > 1<<21 { // the serving shapes' work, {2, 1024, 1000}
			t.Skip("shape past the fuzz work bound")
		}
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
// shards, and the column shards a few-row gemmTB takes — at several
// GOMAXPROCS values.
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
						t.Fatalf("%s %dx%dx%d at GOMAXPROCS %d: C[%d] = %v, scalar %v", sh.name, s.m, s.k, s.n,
							runtime.GOMAXPROCS(0), j, got[j], want[j])
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

// gemmTBKernels names the micro-kernel tile runs gemmTB on, per tier,
// for a row-major B (the connected layers' forward).
var gemmTBKernels = [...]string{
	tierGo:     "gemmTBRowsGo (portable 2x4 tiles of dot products)",
	tierAVX2:   "dotPanelAVX2 (8 lanes = 8 A rows)",
	tierAVX512: "dotBlock16AVX512 (16 lanes = 16 outputs)",
}

// TestKernelISAInfoSeries: KernelISA() names the tier the CPUID probes
// pick, and exactly one darknet_kernel_isa series is exported, it is 1,
// and its label is KernelISA(). It logs the tier and the gemmTB kernel
// that serves a row-major B on it.
func TestKernelISAInfoSeries(t *testing.T) {
	isa := KernelISA()
	t.Logf("live kernel ISA: %s", isa)
	t.Logf("gemmTB kernel for a row-major B: %s", gemmTBKernels[live])
	if want := probeTier().String(); isa != want {
		t.Fatalf("KernelISA() = %q, CPUID probes give %q", isa, want)
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

// TestTrainBatchAllocs: a warmed-up training iteration allocates
// nothing — no per-sample work allocates, and every layer hands par.For
// bodies it bound once. The MemStats pass counts the forking path at
// the test's GOMAXPROCS; AllocsPerRun pins GOMAXPROCS to 1, where
// nothing forks. Under -race, sync.Pool drops pooled scratch at random,
// so there the bound is 64.
func TestTrainBatchAllocs(t *testing.T) {
	net, x, y := mnistTrainNet(t)
	batch := net.Config.Batch
	step := func() {
		if _, err := net.TrainBatch(x, y, batch); err != nil {
			t.Fatalf("train: %v", err)
		}
	}
	limit := 0.0
	if raceEnabled {
		limit = 64
	}
	// A collection empties every sync.Pool, whose next use then
	// allocates afresh, so none may start while allocations are
	// counted. Until each P's pool share has filled, a fork may also
	// find its P's share empty; an allocation made by the iteration
	// itself shows in every window, so the quietest of a few windows
	// counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	step() // grow the scratch buffers
	const iters = 10
	perIter := math.Inf(1)
	for round := 0; round < 10 && perIter > limit; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		perIter = min(perIter, float64(after.Mallocs-before.Mallocs)/iters)
	}
	if perIter > limit {
		t.Errorf("TrainBatch at GOMAXPROCS=%d: %.1f allocs/iteration, want <= %.0f", runtime.GOMAXPROCS(0), perIter, limit)
	}
	if allocs := testing.AllocsPerRun(5, step); allocs > limit {
		t.Errorf("TrainBatch at GOMAXPROCS=1: %.0f allocs/op, want <= %.0f", allocs, limit)
	}
}

// TestClassifyBatchAllocs: a warmed-up ClassifyBatch, on the fp32
// network and on its int8 quantization, allocates only the []int it
// returns. As in TestTrainBatchAllocs, the MemStats pass counts the
// forking path at the test's GOMAXPROCS, and AllocsPerRun, which pins
// GOMAXPROCS to 1, the inline one.
func TestClassifyBatchAllocs(t *testing.T) {
	net, x, _ := mnistTrainNet(t)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	// A -race build's sync.Pool drops a random share of Puts, and a
	// collection empties every pool, so a window can find scratchPool
	// empty and allocate afresh; with more Ps than cores, a blocked fork
	// can also allocate in the scheduler. An allocation ClassifyBatch
	// itself makes shows in every window, however short, so the
	// quietest of a few short windows counts. Under -race the forking
	// path's bound is TestTrainBatchAllocs's.
	limit, calls := 1.0, 5
	if raceEnabled {
		limit = 64
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []struct {
		name string
		net  *Network
	}{{"fp32", net}, {"int8", qnet}} {
		for _, batch := range []int{1, 8, 32} {
			in := x[:batch*n.net.InputSize()]
			classify := func() {
				if _, err := n.net.ClassifyBatch(in, batch); err != nil {
					t.Fatalf("classify: %v", err)
				}
			}
			classify()
			perCall := math.Inf(1)
			for round := 0; round < 10 && perCall > limit; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < calls; i++ {
					classify()
				}
				runtime.ReadMemStats(&after)
				perCall = min(perCall, float64(after.Mallocs-before.Mallocs)/float64(calls))
			}
			if perCall > limit {
				t.Errorf("%s ClassifyBatch(batch %d) at GOMAXPROCS=%d: %.2f allocs/call, want %.0f (the returned classes)",
					n.name, batch, runtime.GOMAXPROCS(0), perCall, limit)
			}
			allocs := math.Inf(1)
			for round := 0; round < 10 && allocs > 1; round++ {
				allocs = min(allocs, testing.AllocsPerRun(calls, classify))
			}
			if allocs != 1 {
				t.Errorf("%s ClassifyBatch(batch %d) at GOMAXPROCS=1: %.0f allocs/op, want 1 (the returned classes)", n.name, batch, allocs)
			}
		}
	}
}
