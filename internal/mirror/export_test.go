package mirror

// StoredBytes returns the persistent footprint of the matrix.
func (d *DataMatrix) StoredBytes() int { return d.n * d.storedRow }

// SealedBytes returns the total persistent size of the mirror payload.
func (m *Model) SealedBytes() int {
	total := 0
	for _, node := range m.layers {
		for _, b := range node.bufs {
			total += b.sealedLen
		}
	}
	return total
}

// ReusedBytes returns the total bytes of recycled slot regions rewritten
// in place across shape changes — space the bump allocator never sees.
func (p *Publication) ReusedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reused
}

// LeakedBytes returns the total bytes abandoned in the bump allocator:
// recycled regions too small for the new shape (Romulus has no free).
func (p *Publication) LeakedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaked
}

// regionSize returns what a fresh model region for the given buffers
// takes from the two heap cursors together.
func regionSize(bufLayers [][]buffer) int { return metaSize(bufLayers) + payloadSize(bufLayers) }
