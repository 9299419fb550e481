// Command benchmark is the repository's regression referee: four
// workloads that each stress a different set of layers, end-to-end
// metrics with fixed bounds, and a separate traced run that yields
// per-layer numbers. It measures every layer from outside, through
// public functions, counters and clocks, and claims no gain itself.
// See README.md for the tables of workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// refSeconds is the -seconds value the reference op counts are sized
// for; other values scale every count linearly, so a run length is a
// fixed number of operations, the same on any two commits.
const refSeconds = 20

// setupRepeats is how many times a run sets up from scratch; setup_s
// is the median.
const setupRepeats = 3

// params are one run's knobs. Every input a workload generates derives
// from seed only.
type params struct {
	seed    int64
	seconds int
	quick   bool // toy scale: output checks only, timings meaningless
	trace   bool
}

// ops scales a reference operation count to the requested run length.
func (p params) ops(ref int) int {
	n := ref * p.seconds / refSeconds
	if p.quick {
		n = ref / 60
	}
	if n < 1 {
		n = 1
	}
	return n
}

// entry is one reported number with what is needed to read it: unit,
// how many samples it summarises, and its time base.
type entry struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value; 0 for exact counts and ratios
	base  string // "virtual", "wall", "exact", ...
}

// pass is what one execution of a workload's measured section
// produced.
type pass struct {
	timings   map[string]series
	entries   map[string]entry
	order     []string
	attempted int
	failed    int
	failures  []string
	quick     bool // toy run: too few samples for tail percentiles, so none is refused
}

func newPass(p params) *pass {
	return &pass{timings: make(map[string]series), entries: make(map[string]entry), quick: p.quick}
}

func (ps *pass) observe(name string, v float64) { ps.timings[name] = append(ps.timings[name], v) }

func (ps *pass) emit(name string, value float64, unit string, n int, base string) {
	if _, seen := ps.entries[name]; !seen {
		ps.order = append(ps.order, name)
	}
	ps.entries[name] = entry{name, value, unit, n, base}
}

// segments is how many consecutive segments a phase's latencies are
// split into; the phase's figure is the lower quartile of the
// segments' (see quietSegments).
const segments = 5

// emitQuantile reports the q-quantile of a time-ordered timing as the
// lower quartile over k consecutive segments (k = 1: the plain
// quantile), refusing (as a failed check) a percentile a segment's
// sample count does not support.
func (ps *pass) emitQuantile(name, timing string, q float64, k int, base string) {
	s := ps.timings[timing]
	if q > 0.5 && !supports(len(s)/k, q) && !ps.quick {
		ps.check(false, "%s: %d samples in %d segments do not support p%g", name, len(s), k, q*100)
	}
	if k > 1 {
		base += fmt.Sprintf(", lower quartile of %d segments", k)
	}
	ps.emit(name, s.quietSegments(k, func(seg series) float64 { return seg.quantile(q) }), "ms", len(s), base)
}

func (ps *pass) value(name string) float64 { return ps.entries[name].value }

// check counts one output check; a failed one makes the run incorrect.
func (ps *pass) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	ps.count(1, failed, format, args...)
}

// count adds a batch of attempted operations and how many of them
// failed, with the message to report if any did.
func (ps *pass) count(attempted, failed int, format string, args ...any) {
	ps.attempted += attempted
	ps.failed += failed
	if failed > 0 && len(ps.failures) < 10 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. setup builds fresh state (it is
// called several times; the previous state is closed first), measure
// runs the measured section once, summarize turns a pass's timings
// into named end-to-end values, and probe — traced run only — adds the
// per-layer numbers.
type workload interface {
	setup(p params) error
	measure(ps *pass, rec *recorder, root int) error
	summarize(ps *pass)
	probe(ps *pass, rec *recorder, root int) error
	close() error
}

// spec describes a workload to the command: which four of its named
// end-to-end values fill the generic m1..m4 slots the benchmark
// contract bounds (every run must report every bounded metric, so the
// bounded names cannot be workload-specific). BENCHMARK.json records
// why each workload exists.
type spec struct {
	name  string
	slots [4]string
	build func() workload
}

var specs = []spec{
	{
		name:  "train-resume",
		slots: [4]string{"train_samples_per_s", "recover_ms_p50", "iter_ms_p50", "iter_ms_p90"},
		build: func() workload { return &trainResume{} },
	},
	{
		name:  "ckpt-large",
		slots: [4]string{"save_ms_p50", "restore_ms_p50", "publish_ms_p50", "recover_ms_p50"},
		build: func() workload { return &ckptLarge{} },
	},
	{
		name:  "serve-replica",
		slots: [4]string{"closed_rps", "open_lo_ms_p50", "open_hi_ms_p50", "open_hi_ms_p95"},
		build: func() workload { return &serveReplica{} },
	},
	{
		name:  "serve-overepc",
		slots: [4]string{"stream_rps", "stream_ms_p95", "fleet_rps", "fleet_ms_p95"},
		build: func() workload { return &serveOverEPC{} },
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// slotNames are the bounded end-to-end metrics beside setup_s. All are
// times, lower is better: a rate fills a slot as its reciprocal, the
// milliseconds one unit of work takes.
var slotNames = [4]string{"m1_ms", "m2_ms", "m3_ms", "m4_ms"}

// slotValue converts a named end-to-end value to its slot form.
func slotValue(e entry) float64 {
	if strings.HasSuffix(e.unit, "/s") {
		if e.value <= 0 {
			return 0
		}
		return 1000 / e.value
	}
	return e.value
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the single list of metric names and
// units the command reports against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadBenchSpec finds BENCHMARK.json in the working directory or, when
// run from inside benchmark/, its parent.
func loadBenchSpec() (benchSpec, error) {
	var bs benchSpec
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return bs, err
		}
		if err := json.Unmarshal(raw, &bs); err != nil {
			return bs, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return bs, nil
	}
	return bs, errors.New("BENCHMARK.json not found in . or ..; run from the repository root")
}

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed every input is derived from")
		seconds      = flag.Int("seconds", refSeconds, "run length; operation counts scale linearly from the 20 s reference")
		trace        = flag.String("trace", "0", "1 (or a file name) adds the traced pass and layer probes and reports per-layer metrics")
		repeat       = flag.Int("repeat", 0, "run N sets of all workloads and report spread against the bounds")
		quick        = flag.Bool("quick", false, "toy scale: output checks only")
		entries      = flag.Bool("entries", false, "also print every reported value as one JSON line (read by -repeat and -workload all)")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	bs, err := loadBenchSpec()
	if err != nil {
		fatal(err)
	}
	p := params{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != "0" && *trace != ""}

	switch {
	case *repeat > 0:
		err = runRepeat(bs, p, *repeat)
	case *workloadName == "all":
		err = runAll(p)
	default:
		sp, ok := findSpec(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		traceFile := *trace
		if traceFile == "1" {
			traceFile = filepath.Join(".bench_build", "trace-"+sp.name+".json")
		}
		var out outcome
		out, err = runWorkload(bs, sp, p, traceFile, *entries)
		if err == nil {
			printOutcome(out)
			if !out.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func printOutcome(out outcome) {
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// execute runs one workload in this process: set-up (several times,
// for a median), the untraced pass, and — when tracing — the traced
// pass and layer probes. traced is nil for an untraced run.
func execute(sp spec, p params, traceFile string) (plain, traced *pass, err error) {
	w := sp.build()
	repeats := setupRepeats
	if p.quick {
		repeats = 1
	}
	var setups series
	for i := 0; i < repeats; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: close: %w", sp.name, err)
			}
		}
		t0 := time.Now()
		if err := w.setup(p); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = w.close() }() // best-effort teardown; the results are already in hand

	plain = newPass(p)
	if err := w.measure(plain, nil, 0); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	w.summarize(plain)
	plain.emit("setup_s", setups.median(), "s", len(setups), "wall")
	fmt.Printf("== %s (seed %d, %d s scale) ==\n", sp.name, p.seed, p.seconds)
	printPass(plain)
	if p.trace {
		if traced, err = runTraced(w, sp, p, plain, traceFile); err != nil {
			return nil, nil, err
		}
	}
	return plain, traced, nil
}

// endToEnd is the result line of an untraced run: set-up time and the
// four slots.
func endToEnd(sp spec, plain *pass) (outcome, error) {
	out := outcome{
		Correct:   plain.failed == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metricValue{"setup_s": {plain.value("setup_s"), "s"}},
	}
	for i, slot := range slotNames {
		e, ok := plain.entries[sp.slots[i]]
		if !ok {
			return outcome{}, fmt.Errorf("%s: no value for %s (slot %s)", sp.name, sp.slots[i], slot)
		}
		out.Metrics[slot] = metricValue{slotValue(e), "ms"}
	}
	return out, nil
}

// perLayer is the result line of a traced run: every per-layer metric
// BENCHMARK.json declares, 0 where this workload does not exercise the
// layer.
func perLayer(bs benchSpec, plain, traced *pass) outcome {
	out := outcome{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   make(map[string]metricValue),
	}
	out.Correct = out.Failed == 0
	for _, d := range bs.PerLayer {
		out.Metrics[d.Name] = metricValue{traced.value(d.Name), d.Unit}
	}
	return out
}

// runWorkload runs one workload and prints its report and result line.
func runWorkload(bs benchSpec, sp spec, p params, traceFile string, entries bool) (outcome, error) {
	plain, traced, err := execute(sp, p, traceFile)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	failures := plain.failures
	if traced == nil {
		if out, err = endToEnd(sp, plain); err != nil {
			return outcome{}, err
		}
		for i, slot := range slotNames {
			fmt.Printf("%-34s = %s\n", slot, sp.slots[i])
		}
	} else {
		out = perLayer(bs, plain, traced)
		failures = append(failures, traced.failures...)
	}
	for _, f := range failures {
		fmt.Println("FAILED CHECK:", f)
	}
	if entries {
		printEntries(plain, traced)
	}
	return out, nil
}

// runTraced runs the measured section again with spans recorded, then
// the layer probes, and reports the per-layer metrics. The untraced
// pass's named end-to-end values are carried along as e2e.<name>, and
// the two passes' difference is the tracing overhead.
func runTraced(w workload, sp spec, p params, plain *pass, traceFile string) (*pass, error) {
	// Start the traced pass from the state the untraced one started
	// from: a pass leaves durable state behind (iteration counters, a
	// recorded shard plan) that would change the second pass's work.
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", sp.name, err)
	}
	if err := w.setup(p); err != nil {
		return nil, fmt.Errorf("%s: set-up for the traced pass: %w", sp.name, err)
	}
	rec := newRecorder()
	root := rec.begin(sp.name, 0, 0)
	traced := newPass(p)
	if err := w.measure(traced, rec, root); err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", sp.name, err)
	}
	w.summarize(traced)

	var overhead series
	for _, name := range sp.slots {
		a, b := slotValue(plain.entries[name]), slotValue(traced.entries[name])
		if a > 0 {
			overhead = append(overhead, (b/a-1)*100)
		}
	}
	minCover := 1.0
	for phase, c := range rec.phaseCoverage() {
		traced.check(c >= 0.95, "phase %s: op spans cover %.1f%% of its wall time, want >= 95%%", phase, c*100)
		if c < minCover {
			minCover = c
		}
	}
	if err := w.probe(traced, rec, root); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", sp.name, err)
	}
	rec.end(root)
	for _, name := range plain.order {
		if e := plain.entries[name]; !strings.Contains(name, ".") {
			traced.emit("e2e."+name, e.value, e.unit, e.n, e.base)
		}
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	traced.emit("e2e.fail_share", float64(failed)/float64(attempted), "ratio", attempted, "exact")
	traced.emit("trace_overhead_pct", overhead.mean(), "%", len(overhead), "traced vs untraced pass, mean over m1..m4")
	traced.emit("trace_phase_coverage_min", minCover, "ratio", 0, "union of a phase's op spans / phase wall")
	if err := rec.write(traceFile, sp.name); err != nil {
		return nil, err
	}
	fmt.Printf("-- traced pass and layer probes (spans in %s) --\n", traceFile)
	printPass(traced)
	return traced, nil
}

func printPass(ps *pass) {
	names := append([]string(nil), ps.order...)
	sort.Strings(names)
	for _, name := range names {
		e := ps.entries[name]
		samples := ""
		if e.n > 0 {
			samples = fmt.Sprintf(" n=%d", e.n)
		}
		fmt.Printf("%-34s %14.4f %-10s [%s%s]\n", e.name, e.value, e.unit, e.base, samples)
	}
	fmt.Printf("%-34s %14d of %d\n", "failed checks", ps.failed, ps.attempted)
}
