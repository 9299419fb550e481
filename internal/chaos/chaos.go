// Package chaos provides deterministic fault injection for the
// simulated fleet: host kills triggered at an exact point in the
// request stream, and drop/delay/duplicate faults on sealed inter-host
// hand-offs. Everything is scripted — no wall-clock randomness — so a
// chaos run replays bit-for-bit under the same seed and schedule, which
// is what lets tests assert exact outcomes (zero dropped requests, a
// specific recovery path) instead of flaky probabilities.
//
// Two seams:
//
//   - HostKiller ticks once per unit of traffic (the caller decides the
//     unit — accepted batch, submitted request) and kills its
//     enclave.Host when the scripted tick arrives. From that instant
//     every boundary crossing into any enclave on that host fails with
//     enclave.ErrHostDown.
//
//   - Injector sits on a fleet.Channel and decides, per carried
//     hand-off, whether the transfer is delivered clean, dropped (the
//     sender times out and retries), delayed by a scripted duration, or
//     duplicated (delivered twice; sealed hand-offs make the duplicate
//     harmless, which is exactly the property worth exercising).
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"plinius/internal/enclave"
)

// Fault is the kind of fault injected on one hand-off transfer.
type Fault int

const (
	// None delivers the transfer untouched.
	None Fault = iota
	// Drop loses the transfer in flight; the sender must retry.
	Drop
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

// DuplicateEvery scripts every n-th transfer attempt duplicated.
func DuplicateEvery(n int) *Injector {
	return NewInjector(Rule{First: n, Last: -1, Kind: Duplicate, Every: n})
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

// Attempts returns how many transfer attempts the injector has seen.
func (in *Injector) Attempts() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// Dropped, Delayed and Duplicated count the faults injected so far.
func (in *Injector) Dropped() uint64 {
	if in == nil {
		return 0
	}
	return in.dropped.Load()
}

func (in *Injector) Delayed() uint64 {
	if in == nil {
		return 0
	}
	return in.delayed.Load()
}

func (in *Injector) Duplicated() uint64 {
	if in == nil {
		return 0
	}
	return in.duplicated.Load()
}

// HostKiller kills a host at a scripted point in the traffic stream:
// the caller Ticks it once per unit of traffic and the kill fires on
// tick number After (1-based). Killed reports whether it has fired.
type HostKiller struct {
	host  *enclave.Host
	after uint64
	ticks atomic.Uint64
	fired atomic.Bool
}

// KillAfter scripts host to be killed on the n-th Tick (n >= 1). An
// n of 0 arms the killer to fire on the first tick.
func KillAfter(host *enclave.Host, n uint64) *HostKiller {
	if n == 0 {
		n = 1
	}
	return &HostKiller{host: host, after: n}
}

// Tick advances the traffic counter and fires the kill when the
// scripted tick arrives. It returns true on the tick that killed the
// host. Safe for concurrent use; exactly one caller observes true.
func (k *HostKiller) Tick() bool {
	if k == nil || k.fired.Load() {
		return false
	}
	if k.ticks.Add(1) == k.after && k.fired.CompareAndSwap(false, true) {
		k.host.Kill()
		return true
	}
	return false
}

// Killed reports whether the scripted kill has fired.
func (k *HostKiller) Killed() bool { return k != nil && k.fired.Load() }

// Host returns the scripted victim.
func (k *HostKiller) Host() *enclave.Host { return k.host }
