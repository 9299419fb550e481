package pm

// StatsReset zeroes the operation counters.
func (d *Device) StatsReset() {
	d.mu.Lock()
	d.stats = Stats{}
	d.mu.Unlock()
}

// PersistedSnapshot returns a copy of the durable image, the volatile
// view with each dirty line's backup laid over it, for tests that verify
// crash consistency without triggering a crash.
func (d *Device) PersistedSnapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, d.size)
	copy(out, d.volatile)
	for w, word := range d.dirty {
		eachRun(w, word, func(start, end int) { copy(out[start:end], d.backupOf(start, end)) })
	}
	return out
}
