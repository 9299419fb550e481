package mirror

import (
	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/romulus"
)

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

// AllocModel plans a training mirror of net in the store rom holds,
// as Framework does on its first save.
func AllocModel(rom *romulus.Romulus, eng *engine.Engine, net *darknet.Network, opts ...Option) (*Model, error) {
	s, err := OpenStore(rom)
	if err != nil {
		return nil, err
	}
	return s.AllocMirror(eng, net, opts...), nil
}

// OpenModel attaches to the training mirror of the store rom holds.
func OpenModel(rom *romulus.Romulus, eng *engine.Engine, opts ...Option) (*Model, error) {
	s, err := OpenStore(rom)
	if err != nil {
		return nil, err
	}
	return s.OpenMirror(eng, opts...)
}

// regionSize returns what a fresh model region for the given buffers
// takes from the two heap cursors together.
func regionSize(bufLayers [][]buffer) int { return metaSize(bufLayers) + payloadSize(bufLayers) }

// MirrorInRange restores only the slice of the persistent model whose
// layer nodes start at index from: net is a shard sub-network whose
// parameter layers correspond to persistent nodes [from, from+n), and
// only that range's sealed buffers are read, decrypted and installed,
// as a resident shard's Opener.Restore does. The persisted iteration
// counter is installed into net and returned.
func (m *Model) MirrorInRange(net *darknet.Network, from int) (int, error) {
	o, err := m.Opener(net, from)
	if err != nil {
		return 0, err
	}
	return o.Restore()
}
