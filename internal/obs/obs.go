// Package obs is the repository's dependency-free telemetry layer: a
// typed metric registry (counters, gauges, and the power-of-two-bucket
// latency histogram promoted from the serving layer) plus request-scoped
// tracing with bounded retention of the slowest requests.
//
// Every layer of the Plinius reproduction registers metrics here under
// stable names — epc_page_swaps_total{enclave=...} from the enclave
// shim, mirror_seal_seconds_total from the PM mirror, pm_bytes_stored_total
// from the PM device, shard_restores_total{shard=...} from the shard
// pipeline, serve_requests_total from the inference server — so the
// evidence the paper cares about (paging knees, AES seal cost, PM
// traffic) is live and machine-readable instead of scattered across
// snapshot-only Stats structs. The registry encodes to the Prometheus
// text exposition format (WritePrometheus) and flattens to a plain
// map for embedding in benchmark artifacts (Flatten).
//
// Layer-level metrics register into the process-wide Default registry.
// Components that are built and torn down many times per process —
// serve.Server, core.ShardGroup — take a per-instance *Registry so
// concurrent tests do not share series.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Kind is the type of a metric family.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically non-decreasing metric. The zero value is
// usable but counters are normally obtained from a Registry so they
// appear in the exposition.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v. Negative deltas are ignored:
// counters only go up.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// AddUint adds an integer delta.
func (c *Counter) AddUint(n uint64) { c.Add(float64(n)) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labeled member of a family. Exactly one of the value
// fields is set, matching the family kind; fn, when non-nil, overrides
// the stored value and is evaluated at gather time.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64
}

// family groups all series sharing a metric name.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	series map[string]*series // keyed by encoded label set
}

// Registry holds metric families. The zero value is not usable; create
// with NewRegistry or use the package Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that layer-level metrics
// (enclave, engine, mirror, pm, storage, darknet) register into.
func Default() *Registry { return defaultRegistry }

// labelKey encodes a sorted label set into a map key. Labels are
// sorted in place; callers pass freshly built slices.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// getFamily returns the family for name, creating it with the given
// kind and help. Re-registering an existing name with a different kind
// panics: stable names are the whole point of the registry, and a
// name that is a counter in one layer and a gauge in another is a bug.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, already a %s", name, kind, f.kind))
	}
	return f
}

// getSeries returns the series for the label set, creating it if new.
func (f *family) getSeries(labels []Label) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch f.kind {
		case KindCounter:
			s.ctr = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = newHistogram()
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getFamily(name, help, KindCounter).getSeries(labels).ctr
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getFamily(name, help, KindGauge).getSeries(labels).gauge
}

// Histogram returns the histogram registered under name with the given
// labels. Buckets are the fixed power-of-two-microsecond layout shared
// by every latency metric in the repository (see HistBuckets).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.getFamily(name, help, KindHistogram).getSeries(labels).hist
}

// CountHistogram returns a histogram of unitless counts (observed with
// ObserveCount) under name: same power-of-two buckets, but le, _sum and
// Flatten's name_sum are plain counts, not seconds.
func (r *Registry) CountHistogram(name, help string, labels ...Label) *Histogram {
	h := r.Histogram(name, help, labels...)
	h.mu.Lock()
	h.counts = true
	h.mu.Unlock()
	return h
}

// CounterFunc registers a counter whose value is computed by fn at
// gather time — for totals that already live elsewhere under their own
// lock, so the exposition reads the authoritative copy instead of
// maintaining a second one. Re-registering the same name+labels
// replaces the function (the newest live object wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, KindCounter)
	s := f.getSeries(labels)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge computed by fn at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, KindGauge)
	s := f.getSeries(labels)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// SeriesPoint is one gathered series.
type SeriesPoint struct {
	Labels []Label
	Value  float64       // counter/gauge value
	Hist   *HistSnapshot // set for histogram families
}

// FamilySnapshot is one gathered metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesPoint
}

// Snapshot gathers every family in one read-side pass. Families are
// sorted by name and series by label set, so output is deterministic.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, k := range keys {
			s := f.series[k]
			p := SeriesPoint{Labels: s.labels}
			switch {
			case s.fn != nil:
				p.Value = s.fn()
			case s.ctr != nil:
				p.Value = s.ctr.Value()
			case s.gauge != nil:
				p.Value = s.gauge.Value()
			}
			if s.hist != nil {
				hs := s.hist.Snapshot()
				p.Hist = &hs
			}
			fs.Series = append(fs.Series, p)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// Flatten gathers one or more registries into a flat name→value map
// (for embedding in benchmark JSON). Labeled series render as
// name{k=v,...}; histograms contribute name_count and name_sum (sum in
// seconds, or in counts for a count histogram). Later registries win on
// (unlikely) key collisions.
func Flatten(regs ...*Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, fam := range r.Snapshot() {
			for _, s := range fam.Series {
				key := fam.Name
				if len(s.Labels) > 0 {
					parts := make([]string, len(s.Labels))
					for i, l := range s.Labels {
						parts[i] = l.Key + "=" + l.Value
					}
					key += "{" + strings.Join(parts, ",") + "}"
				}
				if s.Hist != nil {
					out[key+"_count"] = float64(s.Hist.Count)
					out[key+"_sum"] = s.Hist.Scale(s.Hist.Sum)
					continue
				}
				out[key] = s.Value
			}
		}
	}
	return out
}
