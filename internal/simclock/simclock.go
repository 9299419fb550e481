// Package simclock provides the hybrid time accounting used by every cost
// model in the Plinius reproduction.
//
// The reproduction executes real compute (AES-GCM, SGD training) and models
// device/enclave costs (PM flushes, SSD fsyncs, SGX transitions, EPC
// paging) that this environment cannot produce natively. A Clock
// accumulates the modeled part: callers Advance it by modeled durations,
// and harnesses add the wall-clock time they measure themselves, keeping
// the real/modeled split visible.
package simclock

import (
	"sync"
	"time"
)

// Clock accumulates modeled time. The zero value is ready to use. Clock
// is safe for concurrent use.
type Clock struct {
	mu      sync.Mutex
	modeled time.Duration
	// real and now back the package tests' wall-clock accounting
	// (export_test.go); nothing else reads them.
	real time.Duration
	now  func() time.Time
}

// New returns a Clock at zero.
func New() *Clock { return &Clock{} }

// Advance adds a modeled duration. Negative durations are ignored so cost
// models built from subtraction cannot rewind the clock.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.modeled += d
	c.mu.Unlock()
}

// Modeled returns the accumulated modeled (device/enclave) time.
func (c *Clock) Modeled() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.modeled
}
