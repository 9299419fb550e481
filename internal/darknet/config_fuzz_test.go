package darknet

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzParseConfig feeds arbitrary bytes to the .cfg parser, which runs
// in the untrusted runtime. A malformed config must give an error, never
// a panic, and no config may make the parser allocate past
// MaxParamBytes of parameters: every layer's size is checked before it
// is allocated, and shape arithmetic that would overflow is refused.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, cfg []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net, err := ParseConfig(bytes.NewReader(cfg), nil)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		// Scanner and section maps grow with the input; parameters are
		// bounded by MaxParamBytes (with size-class rounding).
		limit := 32*uint64(len(cfg)) + MaxParamBytes + MaxParamBytes/8 + 1<<20
		if alloc > limit {
			t.Fatalf("ParseConfig allocated %d bytes for a %d-byte config (err %v)", alloc, len(cfg), err)
		}
		if err != nil {
			if net != nil {
				t.Fatalf("ParseConfig returned a network with error %v", err)
			}
			return
		}
		if len(net.Layers) == 0 {
			t.Fatal("ParseConfig accepted a network without layers")
		}
		if pb := net.ParamBytes(); pb > MaxParamBytes {
			t.Fatalf("accepted %d parameter bytes, past MaxParamBytes", pb)
		}
		in := Shape{C: net.Config.Channels, H: net.Config.Height, W: net.Config.Width}
		for i, l := range net.Layers {
			if l.InShape() != in {
				t.Fatalf("layer %d input %v, previous output %v", i, l.InShape(), in)
			}
			in = l.OutShape()
			if _, ok := boundedProduct(in.C, in.H, in.W); !ok {
				t.Fatalf("layer %d output volume %v out of bounds", i, in)
			}
		}
	})
}
