package storage

import "fmt"

// Stats returns a copy of the operation counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Exists reports whether a file exists.
func (d *Device) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// Remove deletes a file.
func (d *Device) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	delete(d.files, name)
	return nil
}
