package mnist

import (
	"fmt"
	"math/rand"
)

// Batch assembles a training batch of the given size by sampling
// indices from rng, returning inputs and one-hot labels.
func (d *Dataset) Batch(rng *rand.Rand, size int) (x, y []float32, err error) {
	if size <= 0 || d.N == 0 {
		return nil, nil, fmt.Errorf("%w: size=%d n=%d", ErrBadBatch, size, d.N)
	}
	x = make([]float32, size*Rows*Cols)
	y = make([]float32, size*Classes)
	for b := 0; b < size; b++ {
		i := rng.Intn(d.N)
		copy(x[b*Rows*Cols:], d.Image(i))
		y[b*Classes+d.Labels[i]] = 1
	}
	return x, y, nil
}
