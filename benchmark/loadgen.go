package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"plinius"
)

// maxInFlight caps the open-loop generator's outstanding requests; a
// request that would exceed it is counted as failed, never skipped
// silently, so an overloaded server cannot slow the arrival schedule.
const maxInFlight = 1024

// target is a server under load plus the inputs and expected outputs
// of every request: request i sends images[order[i%len(order)]] and
// must get that image's reference class back.
type target struct {
	srv    *plinius.Server
	images [][]float32
	want   []int
	order  []int
}

// newTarget derives the request order from rng, so the image sequence
// depends on the seed only.
func newTarget(srv *plinius.Server, images [][]float32, want []int, rng *rand.Rand) *target {
	return &target{srv: srv, images: images, want: want, order: rng.Perm(len(images))}
}

// request sends request i and reports whether it was answered with the
// reference class.
func (t *target) request(i int) bool {
	k := t.order[i%len(t.order)]
	pred, err := t.srv.Classify(context.Background(), t.images[k])
	return err == nil && pred.Class == t.want[k]
}

// loadResult is one load phase's outcome.
type loadResult struct {
	sent, succeeded, failed int
	overflow                int     // open loop: requests refused by the in-flight cap (also in failed)
	lat                     series  // ms, successful requests only, in order of start (closed) or due time (open)
	lateMaxMs               float64 // open loop: how late the generator ran at worst
}

// closedRate is the throughput of a closed loop with no think time, by
// Little's law: clients ÷ mean latency, with the mean taken over the
// quiet segments so that a burst of outside interference does not set
// it.
func (r loadResult) closedRate(clients int) float64 {
	mean := r.lat.quietSegments(segments, series.mean)
	if mean <= 0 {
		return 0
	}
	return float64(clients) * 1000 / mean
}

// closedLoop runs clients goroutines that each send perClient requests
// back to back: a slow server receives less load. Latency is the
// Classify call's wall time.
func closedLoop(rec *recorder, phase int, t *target, clients, perClient int) loadResult {
	lat := make([]float64, clients*perClient)
	ok := make([]bool, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Client c sends every clients-th request, so index
				// order is start order to within one request.
				n := i*clients + c
				id := rec.begin("request", phase, n)
				t0 := time.Now()
				ok[n] = t.request(n)
				lat[n] = ms(time.Since(t0))
				rec.end(id)
			}
		}(c)
	}
	wg.Wait()
	return collect(lat, ok)
}

// arrivals returns n Poisson arrival offsets at the given rate, from
// rng only.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop sends request i at start+due[i] whatever the server is
// doing: one pacer goroutine sleeps to each due time and hands the
// request to a goroutine that only blocks in Classify. Latency runs
// from the due time, so a stall is charged to every request it delays
// (no coordinated omission).
func openLoop(rec *recorder, phase int, t *target, due []time.Duration) loadResult {
	n := len(due)
	lat := make([]float64, n)
	ok := make([]bool, n)
	slots := make(chan struct{}, maxInFlight)
	var (
		wg       sync.WaitGroup
		overflow int
		lateMax  time.Duration
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		dueAt := start.Add(due[i])
		if d := time.Until(dueAt); d > 0 {
			id := rec.begin("pace", phase, i)
			time.Sleep(d)
			rec.end(id)
		}
		if late := time.Since(dueAt); late > lateMax {
			lateMax = late
		}
		select {
		case slots <- struct{}{}:
		default:
			overflow++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			id := rec.begin("request", phase, i)
			ok[i] = t.request(i)
			lat[i] = ms(time.Since(dueAt))
			rec.end(id)
		}(i)
	}
	wg.Wait()
	r := collect(lat, ok)
	r.overflow = overflow
	r.lateMaxMs = ms(lateMax)
	return r
}

// collect counts every request that was not answered correctly as
// failed; that includes open-loop overflow, whose slot is never set.
func collect(lat []float64, ok []bool) loadResult {
	r := loadResult{sent: len(lat)}
	for i, good := range ok {
		if good {
			r.succeeded++
			r.lat = append(r.lat, lat[i])
		}
	}
	r.failed = r.sent - r.succeeded
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
