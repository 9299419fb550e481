// Package fleet is the multi-host serving fabric: it serves one
// logical model across many enclave.Hosts — the path past the two
// walls a single machine has, its usable EPC and its cores.
//
// Three pieces compose it. The placement planner (this file) bin-packs
// darknet.PlanShards layer ranges across a fleet of hosts by EPC
// headroom, so a model whose footprint — or whose single hottest layer
// — exceeds any one machine's budget still serves fully resident, with
// zero paging faults, on machines none of which could hold it alone.
// Replica groups place the same shard plan on k disjoint capacity
// slices for throughput. Attested inter-host channels (channel.go)
// carry the sealed activation hand-off between shard stages that land
// on different hosts. A front-end router (fleet.go) spreads
// micro-batches over the replica groups and drains/re-pins the whole
// fleet atomically on Refresh/RotateKey.
package fleet

import (
	"errors"
	"fmt"

	"plinius/internal/darknet"
)

// ErrInfeasible is returned when no shard split of the model can be
// packed into the fleet's per-host EPC headroom — even at the finest
// granularity (one layer per shard), some shard plus its parked
// overhead fits no host, or the fleet's aggregate capacity cannot hold
// one full replica group. Callers match it with errors.Is; the serving
// front end maps it to a distinct 503 body.
var ErrInfeasible = errors.New("fleet: no feasible placement for the model on this fleet")

// Placement is the planner's output: one shard plan plus, per replica
// group, the host each shard landed on.
type Placement struct {
	// Plan is the contiguous layer-range cover, shared by every group.
	Plan []darknet.ShardRange
	// Footprints is each shard's hot working set at the planned batch
	// (parameters + activation buffers), parallel to Plan.
	Footprints []int
	// Groups[g][s] is the index (into the planning-time host list) of
	// the host serving shard s in replica group g. Every group covers
	// every shard exactly once; groups share hosts only through
	// leftover capacity.
	Groups [][]int
}

// PlanPlacement bin-packs a shard split of net across hosts with the
// given EPC headrooms. Each placed shard charges its hot footprint
// plus the parked per-shard overhead against its host's remaining
// capacity, so a resident fleet never pages: the plan is feasible only
// when every host stays within what it offered.
//
// The search starts from the coarsest split the roomiest host could
// hold and halves the per-shard byte bound until an assignment fits,
// down to the one-layer-per-shard floor; replicas > 1 packs that many
// full copies of the plan (replica groups), replicas <= 0 packs as
// many as the fleet's leftover capacity admits, at least one and at
// most one per host. Assignment is deterministic worst-fit: each shard
// goes to the roomiest host that still fits it, which both balances
// load and keeps adjacent stages co-located while one host has room.
func PlanPlacement(net *darknet.Network, headrooms []int, batch, overhead, replicas int) (Placement, error) {
	return PlanPlacementAt(net, headrooms, batch, overhead, replicas, darknet.FP32)
}

// PlanPlacementAt is PlanPlacement at an explicit parameter precision:
// at darknet.Int8 every shard's parameter bytes are counted as the
// int8-quantized snapshot variant (~4x smaller), so the same fleet
// admits coarser splits, more replica groups, or models that are
// infeasible at fp32. Activation buffers are unchanged — only the
// resident parameters shrink.
func PlanPlacementAt(net *darknet.Network, headrooms []int, batch, overhead, replicas int, prec darknet.Precision) (Placement, error) {
	if net == nil || len(net.Layers) == 0 {
		return Placement{}, fmt.Errorf("%w: empty model", ErrInfeasible)
	}
	if len(headrooms) == 0 {
		return Placement{}, fmt.Errorf("%w: no hosts", ErrInfeasible)
	}
	if batch <= 0 {
		batch = 1
	}
	maxHead := 0
	for _, h := range headrooms {
		if h > maxHead {
			maxHead = h
		}
	}
	if maxHead <= overhead {
		return Placement{}, fmt.Errorf("%w: roomiest host offers %d bytes, under the %d-byte shard overhead", ErrInfeasible, maxHead, overhead)
	}

	auto := replicas <= 0
	want := replicas
	if auto {
		want = 1
	}
	bound := maxHead - overhead
	for {
		plan, err := net.PlanShardsAt(bound, batch, prec)
		if err != nil {
			return Placement{}, fmt.Errorf("fleet: plan shards: %w", err)
		}
		fps, err := footprints(net, plan, batch, prec)
		if err != nil {
			return Placement{}, err
		}
		if groups, ok := assign(fps, headrooms, overhead, want); ok {
			if auto {
				// Grow replica groups while leftover capacity admits a
				// full extra copy of the plan, capped at one group per
				// host — groups beyond that share every machine and
				// add contention, not throughput.
				for k := want + 1; k <= len(headrooms); k++ {
					more, ok := assign(fps, headrooms, overhead, k)
					if !ok {
						break
					}
					groups = more
				}
			}
			return Placement{Plan: plan, Footprints: fps, Groups: groups}, nil
		}
		if bound <= 1 {
			return Placement{}, fmt.Errorf("%w: %d shards (finest split) across %d hosts, %d replica group(s)",
				ErrInfeasible, len(plan), len(headrooms), want)
		}
		bound /= 2
		if bound < 1 {
			bound = 1
		}
	}
}

// footprints computes each shard's hot working set at the batch size
// and parameter precision.
func footprints(net *darknet.Network, plan []darknet.ShardRange, batch int, prec darknet.Precision) ([]int, error) {
	fps := make([]int, len(plan))
	for i, r := range plan {
		fp, err := net.ShardFootprintAt(r, batch, prec)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d footprint: %w", i, err)
		}
		fps[i] = fp
	}
	return fps, nil
}

// assign places `groups` full copies of the plan onto the hosts'
// remaining capacities by deterministic worst-fit, false when any
// shard of any group fits no host.
func assign(fps, headrooms []int, overhead, groups int) ([][]int, bool) {
	remaining := append([]int(nil), headrooms...)
	out := make([][]int, groups)
	for g := range out {
		out[g] = make([]int, len(fps))
		for s, fp := range fps {
			need := fp + overhead
			best := -1
			for h, rem := range remaining {
				if rem >= need && (best == -1 || rem > remaining[best]) {
					best = h
				}
			}
			if best == -1 {
				return nil, false
			}
			remaining[best] -= need
			out[g][s] = best
		}
	}
	return out, true
}
