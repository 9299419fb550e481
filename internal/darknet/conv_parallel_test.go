package darknet

import (
	"math"
	"math/rand"
	"testing"
)

// convTestGeoms covers multi-channel inputs (the parallel gate), odd
// sizes, stride > 1 and zero padding.
var convTestGeoms = []struct {
	in  Shape
	cfg ConvConfig
}{
	{Shape{C: 1, H: 8, W: 8}, ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1}},
	{Shape{C: 4, H: 9, W: 7}, ConvConfig{Filters: 5, Size: 3, Stride: 1, Pad: 1}},
	{Shape{C: 8, H: 12, W: 12}, ConvConfig{Filters: 4, Size: 5, Stride: 2, Pad: 2}},
	{Shape{C: 3, H: 6, W: 6}, ConvConfig{Filters: 2, Size: 2, Stride: 2, Pad: 0}},
}

// im2colPerPixel is the per-pixel reference the row-wise im2col is
// tested against: one bounds test and one store per column-matrix
// element.
func im2colPerPixel(c *convGeom, x, cols []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	outHW := c.out.H * c.out.W
	for ch := 0; ch < c.in.C; ch++ {
		for ky := 0; ky < size; ky++ {
			for kx := 0; kx < size; kx++ {
				row := ((ch*size+ky)*size + kx) * outHW
				for oy := 0; oy < c.out.H; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < c.out.W; ox++ {
						ix := ox*stride + kx - pad
						var v float32
						if iy >= 0 && iy < c.in.H && ix >= 0 && ix < c.in.W {
							v = x[(ch*c.in.H+iy)*c.in.W+ix]
						}
						cols[row+oy*c.out.W+ox] = v
					}
				}
			}
		}
	}
}

// col2imPerPixel is the per-pixel reference for col2im (accumulating).
func col2imPerPixel(c *convGeom, cols, dx []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	outHW := c.out.H * c.out.W
	for ch := 0; ch < c.in.C; ch++ {
		for ky := 0; ky < size; ky++ {
			for kx := 0; kx < size; kx++ {
				row := ((ch*size+ky)*size + kx) * outHW
				for oy := 0; oy < c.out.H; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < c.out.W; ox++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < c.in.H && ix >= 0 && ix < c.in.W {
							dx[(ch*c.in.H+iy)*c.in.W+ix] += cols[row+oy*c.out.W+ox]
						}
					}
				}
			}
		}
	}
}

// forEachConvGeom runs body over stride {1,2,3} x pad {0,1,2} x size
// {1,3,5} on non-square multi-channel inputs (including ones narrower
// than the kernel, where whole kernel columns read only padding), plus
// convTestGeoms.
func forEachConvGeom(t *testing.T, body func(c *convGeom)) {
	t.Helper()
	geoms := convTestGeoms
	for _, in := range []Shape{{C: 2, H: 7, W: 10}, {C: 3, H: 9, W: 4}, {C: 1, H: 2, W: 3}} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for _, size := range []int{1, 3, 5} {
					geoms = append(geoms, struct {
						in  Shape
						cfg ConvConfig
					}{in, ConvConfig{Filters: 2, Size: size, Stride: stride, Pad: pad}})
				}
			}
		}
	}
	ran := 0
	for _, g := range geoms {
		c, err := NewConv(g.in, g.cfg, nil)
		if err != nil {
			continue // kernel larger than the padded input
		}
		ran++
		body(&c.convGeom)
	}
	if ran < 60 {
		t.Fatalf("only %d of %d geometries are valid", ran, len(geoms))
	}
}

// TestIm2colRowwiseMatchesPerPixel requires the row-segment im2col to
// write exactly the per-pixel reference's column matrix — every
// element, padding included, over a buffer pre-filled with garbage.
func TestIm2colRowwiseMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	forEachConvGeom(t, func(c *convGeom) {
		x := make([]float32, c.in.Size())
		fillRandSparse(rng, x)
		n := c.kcols() * c.out.H * c.out.W
		want := make([]float32, n)
		got := make([]float32, n)
		for i := range got {
			got[i] = float32(math.NaN())
		}
		im2colPerPixel(c, x, want)
		c.im2col(x, got)
		for i := range want {
			if !sameFloat(want[i], got[i]) {
				t.Fatalf("in %v cfg %+v cols[%d]: row-wise %v per-pixel %v", c.in, c.cfg, i, got[i], want[i])
			}
		}
	})
}

// TestCol2imRowwiseMatchesPerPixel requires the row-segment col2im to
// accumulate into dx exactly as the per-pixel reference does: same
// contributions, same order, starting from a non-zero dx.
func TestCol2imRowwiseMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	forEachConvGeom(t, func(c *convGeom) {
		cols := make([]float32, c.kcols()*c.out.H*c.out.W)
		fillRandSparse(rng, cols)
		want := make([]float32, c.in.Size())
		fillRandSparse(rng, want)
		got := append([]float32(nil), want...)
		col2imPerPixel(c, cols, want)
		c.col2im(cols, got)
		for i := range want {
			if !sameFloat(want[i], got[i]) {
				t.Fatalf("in %v cfg %+v dx[%d]: row-wise %v per-pixel %v", c.in, c.cfg, i, got[i], want[i])
			}
		}
	})
}

// TestConvForwardBackwardBitIdenticalScalarVsParallel runs a
// multi-channel conv layer end to end — forward then backward — under
// the scalar reference and the parallel kernels (which also flips the
// parallel im2col/col2im paths) and requires bit-identical outputs,
// input gradients and weight gradients.
func TestConvForwardBackwardBitIdenticalScalarVsParallel(t *testing.T) {
	for _, g := range convTestGeoms {
		run := func(scalar bool) (out, dx, gw []float32) {
			SetScalarKernels(scalar)
			defer SetScalarKernels(false)
			rng := rand.New(rand.NewSource(73))
			c, err := NewConv(g.in, g.cfg, rng)
			if err != nil {
				t.Fatalf("conv %+v: %v", g, err)
			}
			batch := 4
			data := rand.New(rand.NewSource(74))
			x := make([]float32, batch*c.in.Size())
			fillRandSparse(data, x)
			o, err := c.Forward(x, batch, true)
			if err != nil {
				t.Fatalf("forward: %v", err)
			}
			delta := make([]float32, batch*c.out.Size())
			fillRandSparse(data, delta)
			d, err := c.Backward(delta)
			if err != nil {
				t.Fatalf("backward: %v", err)
			}
			return append([]float32(nil), o...), append([]float32(nil), d...),
				append([]float32(nil), c.gWeights...)
		}
		outS, dxS, gwS := run(true)
		outP, dxP, gwP := run(false)
		for i := range outS {
			if outS[i] != outP[i] {
				t.Fatalf("geom %+v out[%d]: scalar %v parallel %v", g, i, outS[i], outP[i])
			}
		}
		for i := range dxS {
			if dxS[i] != dxP[i] {
				t.Fatalf("geom %+v dx[%d]: scalar %v parallel %v", g, i, dxS[i], dxP[i])
			}
		}
		for i := range gwS {
			if gwS[i] != gwP[i] {
				t.Fatalf("geom %+v gW[%d]: scalar %v parallel %v", g, i, gwS[i], gwP[i])
			}
		}
	}
}
