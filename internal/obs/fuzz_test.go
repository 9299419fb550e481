package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzLintPrometheus feeds arbitrary bytes to the exposition linter, the
// check run against a live /metrics endpoint. It must return the
// declared families or an error, never panic, and its state may grow
// only with the input: a few maps of the lines it has read, and the
// scanner's line buffer.
func FuzzLintPrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		types, err := LintPrometheus(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(data))+2<<20 {
			t.Fatalf("LintPrometheus allocated %d bytes for a %d-byte exposition", n, len(data))
		}
		if err != nil {
			return
		}
		for name, typ := range types {
			if !validMetricName(name) {
				t.Fatalf("accepted family with invalid name %q", name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("accepted family %s with unknown type %q", name, typ)
			}
		}
	})
}
