package chaos

import (
	"sync/atomic"

	"plinius/internal/enclave"
)

// None is the zero Fault: the transfer is delivered untouched.
const None Fault = 0

// DuplicateEvery scripts every n-th transfer attempt duplicated.
func DuplicateEvery(n int) *Injector {
	return NewInjector(Rule{First: n, Last: -1, Kind: Duplicate, Every: n})
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
