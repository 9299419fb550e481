package simclock

import "time"

// NewWithNow returns a Clock with an injected time source.
func NewWithNow(now func() time.Time) *Clock {
	return &Clock{now: now}
}

// Measure runs fn and adds its wall-clock duration to the real-time total.
func (c *Clock) Measure(fn func()) time.Duration {
	start := c.timeNow()
	fn()
	d := c.timeNow().Sub(start)
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.real += d
	c.mu.Unlock()
	return d
}

// AddReal adds an externally measured real duration.
func (c *Clock) AddReal(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.real += d
	c.mu.Unlock()
}

// Real returns the accumulated wall-clock compute time.
func (c *Clock) Real() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.real
}

// Total returns modeled + real time.
func (c *Clock) Total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.modeled + c.real
}

// Reset zeroes both accumulators.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.modeled = 0
	c.real = 0
	c.mu.Unlock()
}

// Split returns (modeled, real) atomically, for breakdown reporting.
func (c *Clock) Split() (modeled, real time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.modeled, c.real
}

func (c *Clock) timeNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}
