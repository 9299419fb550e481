package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval the benchmark records around its own
// calls into the program: workload → phase → op → layer probe.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the workload span
	Name   string `json:"name"`
	Op     int    `json:"op"` // op id shared by an op span and the probes under it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so measured code calls it unconditionally and the
// untraced run pays one nil check per span.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, Start: t})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span whose bounds the caller already measured.
func (r *recorder) add(name string, parent, op int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// phaseCoverage returns, per phase span (a child of the workload
// span), the share of its wall time covered by the union of its
// direct children.
func (r *recorder) phaseCoverage() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for _, s := range r.spans {
		if s.Parent == 1 {
			out[s.Name] = unionCoverage(s.Start, s.End, children[s.ID])
		}
	}
	return out
}

// write dumps the spans as JSON to path, creating its directory.
func (r *recorder) write(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
