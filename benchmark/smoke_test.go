package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs all four workloads at toy scale, traced, and
// asserts only what does not depend on timing: every output check
// passes, every declared metric is reported, the span file is written.
// It keeps the benchmark compiling and correct as the serving backends
// are refactored.
func TestQuickSmoke(t *testing.T) {
	bs, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bs.Workloads), len(specs))
	}
	reported := make(map[string]bool) // per-layer metrics some workload gave a value
	dir := t.TempDir()
	for i, sp := range specs {
		if bs.Workloads[i].Name != sp.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the command's is %q", i, bs.Workloads[i].Name, sp.name)
		}
		p := params{seed: 3, seconds: refSeconds, quick: true, trace: true}
		traceFile := filepath.Join(dir, sp.name+".json")
		plain, traced, err := execute(sp, p, traceFile)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for _, f := range append(plain.failures, traced.failures...) {
			t.Errorf("%s: failed check: %s", sp.name, f)
		}
		out, err := endToEnd(sp, plain)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !out.Correct || out.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", sp.name, out.Correct, out.Failed, out.Attempted)
		}
		for _, d := range bs.EndToEnd {
			if v, ok := out.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", sp.name, d.Name, v, ok, d.Unit)
			}
		}
		if len(out.Metrics) != len(bs.EndToEnd) {
			t.Errorf("%s: untraced run reports %d metrics, BENCHMARK.json declares %d", sp.name, len(out.Metrics), len(bs.EndToEnd))
		}

		out = perLayer(bs, plain, traced)
		if !out.Correct {
			t.Errorf("%s traced: an output check failed (%d of %d)", sp.name, out.Failed, out.Attempted)
		}
		if len(out.Metrics) != len(bs.PerLayer) {
			t.Errorf("%s: traced run reports %d metrics, BENCHMARK.json declares %d", sp.name, len(out.Metrics), len(bs.PerLayer))
		}
		for name, v := range out.Metrics {
			if v.Value != 0 {
				reported[name] = true
			}
		}
		raw, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatalf("%s: span file: %v", sp.name, err)
		}
		var file struct {
			Workload string `json:"workload"`
			Spans    []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: span file: %v", sp.name, err)
		}
		if file.Workload != sp.name || len(file.Spans) < 3 {
			t.Errorf("%s: span file names %q and holds %d spans", sp.name, file.Workload, len(file.Spans))
		}
		for _, s := range file.Spans {
			if s.End < s.Start || (s.Parent == 0) != (s.ID == 1) {
				t.Errorf("%s: malformed span %+v", sp.name, s)
				break
			}
		}
	}
	// Counts that are zero when all is well, and the over-the-knee
	// probe the toy run skips, are the only metrics no workload may
	// leave at 0.
	zeroOK := map[string]bool{
		"e2e.fail_share": true, "serve.rejected": true, "serve.expired": true,
		"fleet.steady_restores": true, "fleet.handoff_modeled_ms_per_batch": true,
		"enclave.page_swaps_per_req": true, "enclave.page_swaps_per_save": true,
		"enclave.page_swaps_per_save_overknee": true, "enclave.modeled_ms_per_save": true,
	}
	for _, d := range bs.PerLayer {
		if !reported[d.Name] && !zeroOK[d.Name] {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json but no workload reports it", d.Name)
		}
	}
}
