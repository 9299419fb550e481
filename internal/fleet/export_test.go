package fleet

import (
	"context"

	"plinius/internal/darknet"
	"plinius/internal/obs"
)

// ClassifyBatch is ClassifyBatchCtx without a context.
func (fl *Fleet) ClassifyBatch(images []float32) ([]int, error) {
	return fl.ClassifyBatchCtx(context.Background(), images)
}

// Batch returns the plan's micro-batch bound.
func (fl *Fleet) Batch() int { return fl.batch }

// InputSize returns the flattened per-image input size.
func (fl *Fleet) InputSize() int { return fl.inputSize }

// Placement returns the fleet's placement (shared plan, per-group host
// assignment).
func (fl *Fleet) Placement() Placement {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	p := Placement{
		Plan:       append([]darknet.ShardRange(nil), fl.placement.Plan...),
		Footprints: append([]int(nil), fl.placement.Footprints...),
		Groups:     make([][]int, len(fl.placement.Groups)),
	}
	for g, a := range fl.placement.Groups {
		p.Groups[g] = append([]int(nil), a...)
	}
	return p
}

// Metrics returns the registry holding the fleet's fabric series and
// every group's shard counters.
func (fl *Fleet) Metrics() *obs.Registry { return fl.reg }

// InFlight returns the micro-batches currently inside the router.
func (fl *Fleet) InFlight() int { return int(fl.inflight.Load()) }

// Channels returns the number of attested inter-host channels.
func (fl *Fleet) Channels() int { return len(fl.topo.Load().channels) }
