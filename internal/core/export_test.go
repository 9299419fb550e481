package core

import "context"

// ClassifyBatch is ClassifyBatchCtx without a context.
func (g *ShardGroup) ClassifyBatch(images []float32) ([]int, error) {
	return g.ClassifyBatchCtx(context.Background(), images)
}

// InputSize returns the flattened per-image input size.
func (g *ShardGroup) InputSize() int { return g.inputSize }

// Batch returns the plan's micro-batch bound.
func (g *ShardGroup) Batch() int { return g.batch }
