//go:build amd64 && !purego

package darknet

import (
	"math"
	"testing"
)

// TestPackPanel8SweptZeroesPaddedRows: every lane dotBlock16AVX512
// sweeps holds A or zero, whatever the pooled panel held before — a
// stale denormal in a padded row's lane would not change the stored
// sums, only how long the kernel takes to compute them.
func TestPackPanel8SweptZeroesPaddedRows(t *testing.T) {
	stale := math.Float32frombits(1) // the smallest denormal
	for _, k := range []int{1, 7, 8, 16, 17} {
		for rows := 1; rows <= 8; rows++ {
			a := make([]float32, 8*k)
			for i := range a {
				a[i] = float32(i + 1)
			}
			pk := make([]float32, 8*k)
			for i := range pk {
				pk[i] = stale
			}
			packPanel8Swept(k, a, 0, rows, pk)
			swept := 1
			for swept < rows {
				swept *= 2
			}
			for p := 0; p < k; p++ {
				for l := 0; l < swept; l++ {
					want := float32(0)
					if l < rows {
						want = a[l*k+p]
					}
					if got := pk[p*8+l]; got != want {
						t.Fatalf("k=%d rows=%d: pk[%d*8+%d] = %g, want %g", k, rows, p, l, got, want)
					}
				}
			}
		}
	}
}
