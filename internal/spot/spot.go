// Package spot simulates ML model training on transient cloud instances
// (paper §VI, "Plinius on AWS EC2 Spot instances"). A price trace holds
// the spot market price at 5-minute intervals; the simulator compares
// each point against the user's maximum bid and kills or (re)launches
// the training process accordingly, producing the paper's Fig. 10 state
// and loss curves.
package spot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Trace is a spot-price time series.
type Trace struct {
	// Prices holds the market price at each 5-minute interval.
	Prices []float64
}

// Errors returned by this package.
var (
	ErrEmptyTrace = errors.New("spot: trace has no points")
	ErrBadTrace   = errors.New("spot: malformed trace")
	ErrBadBid     = errors.New("spot: bid must be positive")
)

// Synthetic generates a mean-reverting random-walk price trace around
// base with the given volatility, deterministic in seed. It reproduces
// the paper's scenario shape: long runnable stretches with occasional
// price spikes above the bid.
func Synthetic(points int, base, volatility float64, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	prices := make([]float64, points)
	p := base
	for i := range prices {
		// Mean-revert toward base, plus noise and rare spikes.
		p += 0.3*(base-p) + volatility*(rng.Float64()*2-1)
		if rng.Float64() < 0.04 {
			p += volatility * 8 * rng.Float64()
		}
		if p < base*0.5 {
			p = base * 0.5
		}
		prices[i] = p
	}
	return Trace{Prices: prices}
}

// ParseCSV reads a trace with one "minutes,price" pair per line
// (comments with #). This accepts the repository's bundled traces and
// real AWS spot price exports reduced to that form.
func ParseCSV(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		_, priceStr, found := strings.Cut(text, ",")
		if !found {
			return Trace{}, fmt.Errorf("%w: line %d: %q", ErrBadTrace, line, text)
		}
		price, err := strconv.ParseFloat(strings.TrimSpace(priceStr), 64)
		if err != nil {
			return Trace{}, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, err)
		}
		t.Prices = append(t.Prices, price)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("spot: scan trace: %w", err)
	}
	if len(t.Prices) == 0 {
		return Trace{}, ErrEmptyTrace
	}
	return t, nil
}

// Availability returns, per interval, whether the instance runs under
// the given maximum bid (max_bid > market_price, §VI).
func (t Trace) Availability(maxBid float64) []bool {
	out := make([]bool, len(t.Prices))
	for i, p := range t.Prices {
		out[i] = maxBid > p
	}
	return out
}

// Interruptions counts running->killed transitions under the bid.
func (t Trace) Interruptions(maxBid float64) int {
	n := 0
	avail := t.Availability(maxBid)
	for i := 1; i < len(avail); i++ {
		if avail[i-1] && !avail[i] {
			n++
		}
	}
	return n
}

// Trainer is the training process driven by the simulator. Step runs
// one training iteration; Kill simulates the spot instance being
// reclaimed (process death, volatile state lost); Resume restarts the
// process (recovering whatever the implementation persists).
type Trainer interface {
	Step() (loss float32, err error)
	Kill()
	Resume() error
}

// StatePoint is one Fig. 10(b)/(d) state-curve sample.
type StatePoint struct {
	IntervalIdx int
	Running     bool
}

// Result summarises a spot training simulation.
type Result struct {
	// Iterations is the number of training iterations executed, totaled
	// across all (re)runs.
	Iterations int
	// Losses holds the loss of every executed iteration in order.
	Losses []float32
	// States is the instance state curve (Fig. 10 b/d).
	States []StatePoint
	// Interruptions counts kills that occurred before training
	// finished.
	Interruptions int
	// Completed reports whether TargetIters was reached within the
	// trace.
	Completed bool
}

// Config parameterises a simulation.
type Config struct {
	// MaxBid is the user's maximum bid price (paper: 0.0955).
	MaxBid float64
	// TargetIters ends the simulation when the trainer has run this
	// many iterations in total (paper: 500).
	TargetIters int
	// ItersPerInterval is how many training iterations fit in one
	// 5-minute interval when the instance runs.
	ItersPerInterval int
}

// Run drives the trainer through the trace. The trainer starts stopped;
// it is resumed at the first runnable interval.
func Run(t Trace, cfg Config, tr Trainer) (Result, error) {
	if len(t.Prices) == 0 {
		return Result{}, ErrEmptyTrace
	}
	if cfg.MaxBid <= 0 {
		return Result{}, ErrBadBid
	}
	if cfg.TargetIters <= 0 || cfg.ItersPerInterval <= 0 {
		return Result{}, fmt.Errorf("%w: target=%d per-interval=%d", ErrBadTrace, cfg.TargetIters, cfg.ItersPerInterval)
	}
	var res Result
	running := false
	for i, price := range t.Prices {
		shouldRun := cfg.MaxBid > price
		switch {
		case shouldRun && !running:
			if err := tr.Resume(); err != nil {
				return res, fmt.Errorf("resume at interval %d: %w", i, err)
			}
			running = true
		case !shouldRun && running:
			tr.Kill()
			running = false
			res.Interruptions++
		}
		res.States = append(res.States, StatePoint{IntervalIdx: i, Running: running})
		if !running {
			continue
		}
		for k := 0; k < cfg.ItersPerInterval && res.Iterations < cfg.TargetIters; k++ {
			loss, err := tr.Step()
			if err != nil {
				return res, fmt.Errorf("step at interval %d: %w", i, err)
			}
			res.Losses = append(res.Losses, loss)
			res.Iterations++
		}
		if res.Iterations >= cfg.TargetIters {
			res.Completed = true
			return res, nil
		}
	}
	return res, nil
}
