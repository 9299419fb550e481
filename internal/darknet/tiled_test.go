package darknet

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// pieces serves a weight matrix as WeightSegments, the way the mirror
// splits a sealed buffer: piece s of k is [s·len/k, (s+1)·len/k). The
// piece named by bad fails to open.
type pieces struct {
	w      []float32
	k, bad int
}

var errPiece = errors.New("piece fails authentication")

func (p pieces) Segments() int { return p.k }

func (p pieces) OpenSegment(s int, dst []float32) error {
	src := p.w[s*len(p.w)/p.k : (s+1)*len(p.w)/p.k]
	if len(dst) != len(src) {
		return errors.New("piece opened into a destination of the wrong length")
	}
	if s == p.bad {
		return errPiece
	}
	copy(dst, src)
	return nil
}

// TestForwardTiledMatchesForward: a Connected layer fed its weights in
// whole-row pieces produces Forward's outputs bit for bit, on every
// kernel tier and at GOMAXPROCS 1, 2, 3 and 8, from batch 1 to past a
// panel of rows, and leaves its own weight buffer untouched.
func TestForwardTiledMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ in, out, k int }{
		{7, 5, 1},
		{16, 16, 4},
		{33, 24, 3},
		{1024, 1024, 4}, // a 1024-wide layer's four 1 MiB segments
		{784, 1024, 4},
		{1024, 10, 1},
	} {
		src, err := NewConnected(Shape{C: tc.in, H: 1, W: 1}, tc.out, LeakyReLU, rng)
		if err != nil {
			t.Fatal(err)
		}
		fillRandSparse(rng, src.weights)
		fillRandSparse(rng, src.biases)
		dst, err := NewConnected(Shape{C: tc.in, H: 1, W: 1}, tc.out, LeakyReLU, rng)
		if err != nil {
			t.Fatal(err)
		}
		copy(dst.biases, src.biases)
		clear(dst.weights)
		if !dst.RowTiled(tc.k) {
			t.Fatalf("%dx%d in %d pieces: not row-tiled", tc.out, tc.in, tc.k)
		}
		withKernelConfigs(t, func(t *testing.T) {
			for _, batch := range []int{1, 2, 3, 8, 17} {
				x := make([]float32, batch*tc.in)
				fillRandSparse(rng, x)
				want, err := src.Forward(x, batch, false)
				if err != nil {
					t.Fatal(err)
				}
				want = append([]float32(nil), want...)
				got, err := dst.ForwardTiled(x, batch, pieces{w: src.weights, k: tc.k, bad: -1})
				if err != nil {
					t.Fatalf("%dx%d batch %d: %v", tc.out, tc.in, batch, err)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%dx%d in %d pieces, batch %d, tier %v: out[%d] = %v, Forward %v",
							tc.out, tc.in, tc.k, batch, live, i, got[i], want[i])
					}
				}
			}
		})
		for i, v := range dst.weights {
			if v != 0 {
				t.Fatalf("ForwardTiled wrote the layer's own weight %d", i)
			}
		}
	}
}

// TestForwardTiledRefusesBadPieces: pieces that split a row, and a
// piece that fails to open, fail the pass with no output.
func TestForwardTiledRefusesBadPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, err := NewConnected(Shape{C: 10, H: 1, W: 1}, 6, Linear, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 2*10)
	fillRandSparse(rng, x)
	if c.RowTiled(4) || c.RowTiled(0) {
		t.Fatal("RowTiled accepts 4 pieces of a 6-row matrix, or none")
	}
	if _, err := c.ForwardTiled(x, 2, pieces{w: c.weights, k: 4, bad: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("pieces splitting rows: %v, want ErrBadConfig", err)
	}
	withKernelConfigs(t, func(t *testing.T) {
		for bad := 0; bad < 3; bad++ {
			if out, err := c.ForwardTiled(x, 2, pieces{w: c.weights, k: 3, bad: bad}); !errors.Is(err, errPiece) || out != nil {
				t.Fatalf("piece %d fails: out %v, err %v; want no output and the piece's error", bad, out, err)
			}
		}
	})
}

// TestForwardTiledAllocatesNothing: once its first pass has bound the
// fan-out and drawn a tile, a tiled pass at serving batch 2 allocates
// nothing, forking or not.
func TestForwardTiledAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rng := rand.New(rand.NewSource(8))
	c, err := NewConnected(Shape{C: 1024, H: 1, W: 1}, 1024, LeakyReLU, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 2*1024)
	fillRandSparse(rng, x)
	w := pieces{w: c.weights, k: 4, bad: -1}
	var src WeightSegments = w
	withKernelConfigs(t, func(t *testing.T) {
		if _, err := c.ForwardTiled(x, 2, src); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = c.ForwardTiled(x, 2, src) }); n != 0 {
			t.Fatalf("ForwardTiled allocates %.1f objects per pass", n)
		}
	})
}
