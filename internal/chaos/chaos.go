// Package chaos provides deterministic fault injection for the
// simulated fleet: drop/delay/duplicate faults on sealed inter-host
// hand-offs. Everything is scripted — no wall-clock randomness — so a
// chaos run replays bit-for-bit under the same seed and schedule, which
// is what lets tests assert exact outcomes (zero dropped requests, a
// specific recovery path) instead of flaky probabilities.
//
// An Injector sits on a fleet.Channel and decides, per carried
// hand-off, whether the transfer is delivered clean, dropped (the
// sender times out and retries), delayed by a scripted duration, or
// duplicated (delivered twice; sealed hand-offs make the duplicate
// harmless, which is exactly the property worth exercising). Host kills
// are enclave.Host.Kill, called by the test at the point it scripts.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"
)

// Fault is the kind of fault injected on one hand-off transfer.
type Fault int

// The zero Fault delivers the transfer untouched.
const (
	// Drop loses the transfer in flight; the sender must retry.
	Drop Fault = iota + 1
	// Delay delivers the transfer after an extra scripted latency.
	Delay
	// Duplicate delivers the transfer twice (idempotence probe).
	Duplicate
)

// String returns the fault kind name.
func (f Fault) String() string {
	switch f {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	default:
		return "none"
	}
}

// Decision is the injector's verdict for one transfer attempt.
type Decision struct {
	Kind Fault
	// Extra is the added latency when Kind is Delay.
	Extra time.Duration
}

// Rule matches a contiguous range of transfer attempts on a channel,
// counted from 1 in the order Next is called. Last == 0 means the rule
// matches only attempt First; Last < 0 means every attempt from First
// on. Rules are checked in order; the first match wins.
type Rule struct {
	First, Last int
	Kind        Fault
	Extra       time.Duration
	// Every, when > 0, turns the rule periodic: within [First, Last] it
	// matches only attempts where (n - First) is a multiple of Every.
	Every int
}

func (r Rule) matches(n int) bool {
	if n < r.First {
		return false
	}
	last := r.Last
	if last == 0 {
		last = r.First
	}
	if last > 0 && n > last {
		return false
	}
	if r.Every > 1 && (n-r.First)%r.Every != 0 {
		return false
	}
	return true
}

// Injector scripts faults for one channel. It is safe for concurrent
// use; the attempt counter makes the schedule deterministic for a
// serialized caller (one channel carries hand-offs one at a time).
type Injector struct {
	mu    sync.Mutex
	n     int
	rules []Rule

	dropped    atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
}

// NewInjector builds an injector from an ordered rule list.
func NewInjector(rules ...Rule) *Injector {
	return &Injector{rules: rules}
}

// DropFirst scripts the first k transfer attempts to be dropped; the
// sender's bounded retry must carry each hand-off through on attempt
// k+1 at the latest.
func DropFirst(k int) *Injector {
	return NewInjector(Rule{First: 1, Last: k, Kind: Drop})
}

// DropEvery scripts every n-th transfer attempt (n, 2n, ...) dropped.
func DropEvery(n int) *Injector {
	return NewInjector(Rule{First: n, Last: -1, Kind: Drop, Every: n})
}

// Next advances the attempt counter and returns the scripted decision
// for this attempt. A nil injector always delivers clean.
func (in *Injector) Next() Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	in.n++
	n := in.n
	in.mu.Unlock()
	for _, r := range in.rules {
		if r.matches(n) {
			switch r.Kind {
			case Drop:
				in.dropped.Add(1)
			case Delay:
				in.delayed.Add(1)
			case Duplicate:
				in.duplicated.Add(1)
			}
			return Decision{Kind: r.Kind, Extra: r.Extra}
		}
	}
	return Decision{}
}
