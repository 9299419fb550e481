package darknet

import (
	"errors"
	"fmt"
)

// Model sharding: partition a network into contiguous layer ranges so
// one model that exceeds the usable EPC can be pipelined across several
// small shard enclaves instead of thrashing one big one. A ShardRange
// is a half-open [From, To) interval of layer indices; Shard builds a
// runnable sub-network over such a range, and PlanShards chooses the
// ranges so each shard's enclave working set — its parameter buffers
// plus the activation volumes a forward pass stages — stays under a
// byte bound.

// ShardRange is a contiguous half-open layer range [From, To).
type ShardRange struct {
	From, To int
}

// String implements fmt.Stringer.
func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.From, r.To) }

// Sharding errors.
var (
	ErrBadShardRange = errors.New("darknet: shard range out of bounds")
	ErrBadShardBound = errors.New("darknet: shard byte bound must be positive")
)

func (n *Network) checkRange(r ShardRange) error {
	if r.From < 0 || r.To > len(n.Layers) || r.From >= r.To {
		return fmt.Errorf("%w: %v of %d layers", ErrBadShardRange, r, len(n.Layers))
	}
	return nil
}

// Shard builds the sub-network over the layer range r. The shard shares
// the receiver's layer objects (parameter buffers included), so a
// restore into the shard restores the corresponding range of the full
// model; its Config input volume is rewritten to the range's input
// shape, so InputSize and Forward see the shard as a complete network.
// A forward pass over the shard is bit-identical to the corresponding
// segment of the full network's forward pass.
func (n *Network) Shard(r ShardRange) (*Network, error) {
	if err := n.checkRange(r); err != nil {
		return nil, err
	}
	cfg := n.Config
	in := n.Layers[r.From].InShape()
	cfg.Channels, cfg.Height, cfg.Width = in.C, in.H, in.W
	return &Network{
		Config:    cfg,
		Layers:    n.Layers[r.From:r.To],
		Iteration: n.Iteration,
	}, nil
}

// ForwardRange runs a forward pass over just the layer range r —
// exactly the segment a shard enclave executes — and returns the
// range's output activations.
func (n *Network) ForwardRange(x []float32, batch int, r ShardRange, train bool) ([]float32, error) {
	sub, err := n.Shard(r)
	if err != nil {
		return nil, err
	}
	return sub.Forward(x, batch, train)
}

// layerParamBytes returns one layer's parameter footprint in bytes at
// the given serving precision. At Int8 the weight matrix (buffer 0 of
// a trainable layer, or the QuantWeights of an already-quantized one)
// counts one byte per element plus its fp32 scale; the
// small fp32 vectors keep four bytes per element. Layers without
// parameters are free at either precision.
func layerParamBytes(l Layer, prec Precision) int {
	total := 0
	if ql, ok := l.(QuantWeightLayer); ok {
		total = len(ql.QuantWeights()) + QuantScaleBytes
		for _, p := range l.Params() {
			total += 4 * len(p)
		}
		return total
	}
	for bi, p := range l.Params() {
		if prec == Int8 && bi == 0 {
			total += len(p) + QuantScaleBytes
		} else {
			total += 4 * len(p)
		}
	}
	return total
}

// ShardFootprint returns the enclave working set of the shard r at the
// given micro-batch size: its parameter bytes plus the staged input
// volume and every layer's activation output buffer. This is what a
// shard enclave reserves while hot, and what PlanShards packs against
// its byte bound.
func (n *Network) ShardFootprint(r ShardRange, batch int) (int, error) {
	return n.ShardFootprintAt(r, batch, FP32)
}

// ShardFootprintAt is ShardFootprint at an explicit serving precision:
// at Int8 the parameter term shrinks to the quantized snapshot size
// (activations stay fp32 — the int8 forward path dequantizes on
// accumulate into fp32 activations).
func (n *Network) ShardFootprintAt(r ShardRange, batch int, prec Precision) (int, error) {
	if err := n.checkRange(r); err != nil {
		return 0, err
	}
	if batch <= 0 {
		batch = 1
	}
	total := 4 * batch * n.Layers[r.From].InShape().Size()
	for _, l := range n.Layers[r.From:r.To] {
		total += layerParamBytes(l, prec) + 4*batch*l.OutShape().Size()
	}
	return total, nil
}

// ParamLayersBefore returns how many parameter-carrying layers precede
// layer index i — the offset of layer i's parameters in the persistent
// mirror's layer-node list, which stores only layers that have
// parameters. Shard restores use it to address their range of the
// published snapshot.
func (n *Network) ParamLayersBefore(i int) int {
	count := 0
	for _, l := range n.Layers[:i] {
		if len(l.Params()) > 0 {
			count++
		}
	}
	return count
}

// PlanShards partitions the network into contiguous shards whose
// ShardFootprint at the given batch stays within maxBytes, balancing
// greedily: each shard takes layers until the next one would overflow
// the bound. A single layer whose footprint alone exceeds maxBytes
// gets a shard of its own — layers are the granularity of the split —
// so every plan covers all layers even when the bound is unreachable.
func (n *Network) PlanShards(maxBytes, batch int) ([]ShardRange, error) {
	return n.PlanShardsAt(maxBytes, batch, FP32)
}

// PlanShardsAt is PlanShards against ShardFootprintAt at an explicit
// serving precision: at Int8 the smaller parameter footprints let more
// layers pack into each shard, so models that needed several shard
// enclaves at fp32 may fit one.
func (n *Network) PlanShardsAt(maxBytes, batch int, prec Precision) ([]ShardRange, error) {
	if len(n.Layers) == 0 {
		return nil, ErrEmptyNetwork
	}
	if maxBytes <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadShardBound, maxBytes)
	}
	var plan []ShardRange
	from := 0
	for from < len(n.Layers) {
		to := from + 1
		for to < len(n.Layers) {
			fp, err := n.ShardFootprintAt(ShardRange{From: from, To: to + 1}, batch, prec)
			if err != nil {
				return nil, err
			}
			if fp > maxBytes {
				break
			}
			to++
		}
		plan = append(plan, ShardRange{From: from, To: to})
		from = to
	}
	return plan, nil
}

// PlanShardCount partitions the network into at most count contiguous
// shards, relaxing the per-shard byte bound from the ideal equal split
// until the plan fits. count <= 1 yields the whole-network single
// shard.
func (n *Network) PlanShardCount(count, batch int) ([]ShardRange, error) {
	if len(n.Layers) == 0 {
		return nil, ErrEmptyNetwork
	}
	if count <= 1 {
		return []ShardRange{{From: 0, To: len(n.Layers)}}, nil
	}
	total, err := n.ShardFootprint(ShardRange{From: 0, To: len(n.Layers)}, batch)
	if err != nil {
		return nil, err
	}
	step := total/count/8 + 1
	for bound := total/count + 1; ; bound += step {
		plan, err := n.PlanShards(bound, batch)
		if err != nil {
			return nil, err
		}
		if len(plan) <= count {
			return plan, nil
		}
	}
}
