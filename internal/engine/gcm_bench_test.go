package engine

import (
	"fmt"
	"testing"
)

// BenchmarkGCM seals and opens one frame per op on each path, at the
// sizes the repository moves: a 64-byte field, a 3 KiB training-data
// row, a 16 KiB buffer and a 1 MiB mirror segment. The kernel must be
// no slower than the stdlib at any of them.
func BenchmarkGCM(b *testing.B) {
	p := newGCMPair(b, 7)
	aad := make([]byte, 16)
	for _, n := range []int{64, 3 << 10, 16 << 10, 1 << 20} {
		plain := make([]byte, n)
		for _, path := range []struct {
			name string
			e    *Engine
		}{{GCMPath(), p.kern}, {"stdlib", p.std}} {
			if path.name == "stdlib" && path.e == p.kern {
				continue
			}
			frame := make([]byte, SealedLen(n))
			if err := path.e.SealInto(frame, plain, aad); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("seal/%s/%d", path.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := path.e.SealInto(frame, plain, aad); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("open/%s/%d", path.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := path.e.OpenAAD(plain, frame, aad); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
