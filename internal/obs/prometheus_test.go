package obs

import (
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact text exposition of a fixed
// registry: HELP/TYPE headers, sorted families and series, escaped
// label values, cumulative histogram buckets with le in seconds (in
// plain counts, exact at the powers of two, for a count histogram), and
// the _sum/_count pair.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("epc_page_swaps_total", "EPC pages swapped.", Label{"enclave", "train"}).Add(12)
	r.Counter("epc_page_swaps_total", "EPC pages swapped.", Label{"enclave", "replica"}).Add(3)
	r.Gauge("serve_epc_pressure", "Host EPC overcommit fraction.").Set(0.25)
	r.Counter("weird_total", "Label escaping.", Label{"path", `a"b\c`}).Inc()
	h := r.Histogram("serve_request_seconds", "Request latency.")
	h.Observe(3 * time.Microsecond)    // bucket 2: (2,4] µs
	h.Observe(3 * time.Microsecond)    // bucket 2 again
	h.Observe(1000 * time.Microsecond) // bucket 10: (512,1024] µs
	sizes := r.CountHistogram("serve_batch_size", "Requests per batch.")
	for _, n := range []int{1, 2, 3, 4, 5} {
		sizes.ObserveCount(n)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP epc_page_swaps_total EPC pages swapped.
# TYPE epc_page_swaps_total counter
epc_page_swaps_total{enclave="replica"} 3
epc_page_swaps_total{enclave="train"} 12
# HELP serve_batch_size Requests per batch.
# TYPE serve_batch_size histogram
serve_batch_size_bucket{le="1"} 1
serve_batch_size_bucket{le="2"} 2
serve_batch_size_bucket{le="4"} 4
serve_batch_size_bucket{le="8"} 5
serve_batch_size_bucket{le="+Inf"} 5
serve_batch_size_sum 15
serve_batch_size_count 5
# HELP serve_epc_pressure Host EPC overcommit fraction.
# TYPE serve_epc_pressure gauge
serve_epc_pressure 0.25
# HELP serve_request_seconds Request latency.
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le="1e-06"} 0
serve_request_seconds_bucket{le="2e-06"} 0
serve_request_seconds_bucket{le="4e-06"} 2
serve_request_seconds_bucket{le="8e-06"} 2
serve_request_seconds_bucket{le="1.6e-05"} 2
serve_request_seconds_bucket{le="3.2e-05"} 2
serve_request_seconds_bucket{le="6.4e-05"} 2
serve_request_seconds_bucket{le="0.000128"} 2
serve_request_seconds_bucket{le="0.000256"} 2
serve_request_seconds_bucket{le="0.000512"} 2
serve_request_seconds_bucket{le="0.001024"} 3
serve_request_seconds_bucket{le="+Inf"} 3
serve_request_seconds_sum 0.001006
serve_request_seconds_count 3
# HELP weird_total Label escaping.
# TYPE weird_total counter
weird_total{path="a\"b\\c"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The encoder's own output must satisfy the linter the CI smoke
	// job uses.
	if _, err := LintPrometheus(strings.NewReader(b.String())); err != nil {
		t.Fatalf("golden output fails lint: %v", err)
	}
}

// TestLintPrometheusRejects: the linter catches the failure classes
// the CI smoke job exists to guard against.
func TestLintPrometheusRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"undeclared series", "foo_total 1\n"},
		{"duplicate series", "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n"},
		{"duplicate reordered labels", "# TYPE a counter\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n"},
		{"bad value", "# TYPE a counter\na one\n"},
		{"bad label name", "# TYPE a counter\na{0x=\"1\"} 1\n"},
		{"unquoted label value", "# TYPE a counter\na{x=1} 1\n"},
		{"type after samples", "# TYPE a counter\na 1\n# TYPE a counter\n"},
		{"unknown type", "# TYPE a foo\na 1\n"},
	}
	for _, c := range cases {
		if _, err := LintPrometheus(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: lint accepted %q", c.name, c.text)
		}
	}
	ok := "# HELP a help text\n# TYPE a histogram\na_bucket{le=\"+Inf\"} 1\na_sum 0.5\na_count 1\n# TYPE b counter\nb{x=\"v\"} 3 1712000000\n"
	types, err := LintPrometheus(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
	if types["a"] != "histogram" || types["b"] != "counter" {
		t.Fatalf("types = %v", types)
	}
}
