package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"plinius"
	"plinius/internal/obs"
)

// Time bases. A "virtual" time is the wall time of a call plus the
// modeled time the call added to the framework's enclave and PM
// clocks — the paper's Fig. 7 quantity on the sgx-emlPM cost model,
// which is unvalidated against hardware. Everything else is host wall
// time.
const (
	baseVirtual = "virtual: wall + modeled enclave/PM"
	baseWall    = "wall"
	baseExact   = "exact count"
	baseModeled = "modeled"
)

// virtualTimer measures one framework call in the virtual time base.
type virtualTimer struct {
	f        *plinius.Framework
	start    time.Time
	encl, pm time.Duration
}

func startVirtual(f *plinius.Framework) virtualTimer {
	return virtualTimer{
		f:     f,
		encl:  f.Enclave.Clock().Modeled(),
		pm:    f.PM.Clock().Modeled(),
		start: time.Now(),
	}
}

// virtualSample is one operation's time split, in ms.
type virtualSample struct {
	wall, encl, pm float64
	start, end     time.Time
}

func (s virtualSample) virtual() float64 { return s.wall + s.encl + s.pm }

func (v virtualTimer) stop() virtualSample {
	end := time.Now()
	return virtualSample{
		wall:  ms(end.Sub(v.start)),
		encl:  ms(v.f.Enclave.Clock().Modeled() - v.encl),
		pm:    ms(v.f.PM.Clock().Modeled() - v.pm),
		start: v.start,
		end:   end,
	}
}

// observeVirtual records an operation under its virtual, wall and
// modeled timings and as an op span.
func observeVirtual(ps *pass, rec *recorder, phase, op int, name string, s virtualSample) {
	ps.observe(name+"_ms", s.virtual())
	ps.observe(name+"_wall_ms", s.wall)
	ps.observe(name+"_encl_ms", s.encl)
	ps.observe(name+"_pm_ms", s.pm)
	rec.add(name, phase, op, s.start, s.end)
}

// paramHash is an FNV-1a hash over every parameter of the enclave
// model, taken a 32-bit word at a time (a byte-wise pass over a 64 MB
// model would cost more than the restore it checks).
func paramHash(f *plinius.Framework) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, l := range f.Net.Layers {
		for _, p := range l.Params() {
			for _, v := range p {
				h ^= uint64(math.Float32bits(v))
				h *= prime
			}
		}
	}
	return h
}

// counters is a flattened snapshot of metric registries.
type counters map[string]float64

func snapCounters(regs ...*obs.Registry) counters {
	return counters(obs.Flatten(append([]*obs.Registry{obs.Default()}, regs...)...))
}

// total sums every series of one metric family, whatever its labels.
func (c counters) total(family string) float64 {
	sum := 0.0
	for k, v := range c {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}

// since returns how much a family grew between two snapshots.
func (c counters) since(before counters, family string) float64 {
	return c.total(family) - before.total(family)
}

// mallocs returns the process's cumulative heap allocation count. It
// stops the world, so it is read at phase boundaries only.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timeCalls is a layer probe: it calls fn n times in isolation,
// records each call as a span under parent, and returns each call's
// wall ms.
func timeCalls(rec *recorder, parent int, name string, n int, fn func() error) (series, error) {
	out := make(series, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		t1 := time.Now()
		rec.add(name, parent, i, t0, t1)
		out = append(out, ms(t1.Sub(t0)))
	}
	return out, nil
}

func mib(bytes int) float64 { return float64(bytes) / (1 << 20) }
