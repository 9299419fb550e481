// Package mnist provides the training data substrate for the Plinius
// reproduction: a reader/writer for the IDX file format used by the real
// MNIST database, and a deterministic synthetic handwritten-digit
// generator that stands in for the MNIST files, which an offline
// reproduction cannot fetch. Synthetic digits are rendered from
// seven-segment glyph templates with random translation, thickness
// jitter and pixel noise — a 10-class 28x28 grayscale problem the
// paper's CNNs learn readily, exercising the same code paths as real
// MNIST.
package mnist

import (
	"errors"
	"fmt"
	"math/rand"
)

// Geometry of MNIST images.
const (
	Rows    = 28
	Cols    = 28
	Classes = 10
)

// Dataset is a labelled image set. Pixels are float32 in [0,1],
// row-major, one image per Rows*Cols block.
type Dataset struct {
	Images []float32
	Labels []int
	N      int
}

// Errors returned by dataset operations.
var (
	ErrBadDataset = errors.New("mnist: images and labels disagree")
	ErrBadBatch   = errors.New("mnist: invalid batch size")
)

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.N < 0 || len(d.Labels) != d.N || len(d.Images) != d.N*Rows*Cols {
		return fmt.Errorf("%w: n=%d images=%d labels=%d", ErrBadDataset, d.N, len(d.Images), len(d.Labels))
	}
	for i, l := range d.Labels {
		if l < 0 || l >= Classes {
			return fmt.Errorf("%w: label[%d]=%d", ErrBadDataset, i, l)
		}
	}
	return nil
}

// Image returns the i-th image as a slice view.
func (d *Dataset) Image(i int) []float32 {
	return d.Images[i*Rows*Cols : (i+1)*Rows*Cols]
}

// OneHot returns the i-th label as a one-hot vector.
func (d *Dataset) OneHot(i int) []float32 {
	v := make([]float32, Classes)
	v[d.Labels[i]] = 1
	return v
}

// sevenSegments maps each digit to its lit segments
// (A top, B top-right, C bottom-right, D bottom, E bottom-left,
// F top-left, G middle).
var sevenSegments = [Classes][7]bool{
	0: {true, true, true, true, true, true, false},
	1: {false, true, true, false, false, false, false},
	2: {true, true, false, true, true, false, true},
	3: {true, true, true, true, false, false, true},
	4: {false, true, true, false, false, true, true},
	5: {true, false, true, true, false, true, true},
	6: {true, false, true, true, true, true, true},
	7: {true, true, true, false, false, false, false},
	8: {true, true, true, true, true, true, true},
	9: {true, true, true, true, false, true, true},
}

// drawDigit renders digit into a Rows x Cols image with the given
// offsets and stroke thickness.
func drawDigit(img []float32, digit, dx, dy, thick int) {
	// Glyph box before jitter: x in [9,19], y in [5,23].
	left, right := 9+dx, 19+dx
	top, mid, bottom := 5+dy, 14+dy, 23+dy

	hseg := func(y, x0, x1 int) {
		for t := 0; t < thick; t++ {
			yy := y + t
			if yy < 0 || yy >= Rows {
				continue
			}
			for x := x0; x <= x1; x++ {
				if x >= 0 && x < Cols {
					img[yy*Cols+x] = 1
				}
			}
		}
	}
	vseg := func(x, y0, y1 int) {
		for t := 0; t < thick; t++ {
			xx := x + t
			if xx < 0 || xx >= Cols {
				continue
			}
			for y := y0; y <= y1; y++ {
				if y >= 0 && y < Rows {
					img[y*Cols+xx] = 1
				}
			}
		}
	}
	seg := sevenSegments[digit]
	if seg[0] {
		hseg(top, left, right)
	}
	if seg[1] {
		vseg(right, top, mid)
	}
	if seg[2] {
		vseg(right, mid, bottom)
	}
	if seg[3] {
		hseg(bottom, left, right)
	}
	if seg[4] {
		vseg(left, mid, bottom)
	}
	if seg[5] {
		vseg(left, top, mid)
	}
	if seg[6] {
		hseg(mid, left, right)
	}
}

// Synthetic generates n labelled digit images deterministically from
// seed. Labels cycle through the classes so every class is equally
// represented.
func Synthetic(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Images: make([]float32, n*Rows*Cols),
		Labels: make([]int, n),
		N:      n,
	}
	for i := 0; i < n; i++ {
		digit := i % Classes
		d.Labels[i] = digit
		img := d.Image(i)
		dx := rng.Intn(5) - 2
		dy := rng.Intn(5) - 2
		thick := 2 + rng.Intn(2)
		drawDigit(img, digit, dx, dy, thick)
		// Intensity scaling and additive noise, clamped to [0,1].
		scale := 0.7 + 0.3*rng.Float32()
		for p := range img {
			v := img[p]*scale + 0.08*rng.Float32()
			if v > 1 {
				v = 1
			}
			img[p] = v
		}
	}
	return d
}

// Split partitions the dataset into train and test subsets.
func (d *Dataset) Split(train int) (*Dataset, *Dataset, error) {
	if train < 0 || train > d.N {
		return nil, nil, fmt.Errorf("%w: split %d of %d", ErrBadDataset, train, d.N)
	}
	a := &Dataset{
		Images: d.Images[:train*Rows*Cols],
		Labels: d.Labels[:train],
		N:      train,
	}
	b := &Dataset{
		Images: d.Images[train*Rows*Cols:],
		Labels: d.Labels[train:],
		N:      d.N - train,
	}
	return a, b, nil
}
