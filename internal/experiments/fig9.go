package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// fig9 is the crash-resilience experiment (paper Fig. 9, on
// emlSGX-PM): a 20-iteration job trained without crashes, with two
// random crash/resume cycles and mirroring on, and with mirroring off
// and crashed at the same global steps, so every restart begins from
// random weights. The paper's job is 500 iterations of 5 conv layers;
// one conv layer of 4 filters keeps the pure-Go CNN fast.
func fig9() ([]Row, error) {
	const iters, crashes, seed = 20, 2, 2
	ds := mnist.Synthetic(128, seed)
	modelCfg := darknet.MNISTConfig(1, 4, 16)
	newFramework := func(mirrorFreq int) (*core.Framework, error) {
		f, err := core.New(core.Config{
			ModelConfig: modelCfg,
			Server:      core.EmlSGXPM(),
			PMBytes:     64 << 20,
			MirrorFreq:  mirrorFreq,
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		return f, f.LoadDataset(ds)
	}

	// Crash points: distinct iterations in the middle 80% of the run.
	rng := rand.New(rand.NewSource(seed + 77))
	crashSet := map[int]bool{}
	for len(crashSet) < crashes {
		crashSet[iters/10+rng.Intn(iters*8/10)] = true
	}
	var crashIters []int
	for it := range crashSet {
		crashIters = append(crashIters, it)
	}
	sort.Ints(crashIters)

	baseline, err := newFramework(1)
	if err != nil {
		return nil, err
	}
	baselineIters := 0
	if err := baseline.Train(context.Background(), core.StopAt(iters), core.WithProgress(func(int, float32) {
		baselineIters++
	})); err != nil {
		return nil, fmt.Errorf("fig9 baseline: %w", err)
	}

	resilient, err := newFramework(1)
	if err != nil {
		return nil, err
	}
	var losses []float32
	record := core.WithProgress(func(_ int, l float32) { losses = append(losses, l) })
	for _, crashAt := range crashIters {
		if err := resilient.Train(context.Background(), core.StopAt(crashAt), record); err != nil {
			return nil, fmt.Errorf("fig9 resilient: %w", err)
		}
		resilient.Crash()
		if err := resilient.Recover(true); err != nil {
			return nil, fmt.Errorf("fig9 resilient recover: %w", err)
		}
	}
	if err := resilient.Train(context.Background(), core.StopAt(iters), record); err != nil {
		return nil, fmt.Errorf("fig9 resilient tail: %w", err)
	}

	fresh, err := newFramework(-1)
	if err != nil {
		return nil, err
	}
	global := 0
	counted := core.WithProgress(func(int, float32) { global++ })
	for _, crashAt := range crashIters {
		// Train until the global step count reaches the crash point.
		if need := crashAt - global; need > 0 {
			if err := fresh.Train(context.Background(), core.StopAt(fresh.Iteration()+need), counted); err != nil {
				return nil, fmt.Errorf("fig9 non-resilient: %w", err)
			}
		}
		fresh.Crash()
		if err := fresh.Recover(true); err != nil {
			return nil, fmt.Errorf("fig9 non-resilient recover: %w", err)
		}
	}
	// The model still needs the full job from its last restart.
	if err := fresh.Train(context.Background(), core.StopAt(iters), counted); err != nil {
		return nil, fmt.Errorf("fig9 non-resilient tail: %w", err)
	}

	learned := math.NaN()
	if len(losses) > 0 {
		learned = float64(losses[len(losses)-1]) / float64(losses[0])
	}
	return []Row{
		{Figure: "Fig. 9", Quantity: "crashes injected", Paper: "random", Value: float64(len(crashIters)), Unit: "crashes", Clock: count, Lo: crashes, Hi: crashes},
		{Figure: "Fig. 9", Quantity: "no-crash run iterations (20-iteration job)", Paper: "= job (500)", Value: float64(baselineIters), Unit: "iterations", Clock: count, Lo: iters, Hi: iters},
		{Figure: "Fig. 9", Quantity: "crash-resilient run iterations", Paper: "= job (500)", Value: float64(len(losses)), Unit: "iterations", Clock: count, Lo: iters, Hi: iters},
		{Figure: "Fig. 9", Quantity: "non-resilient run iterations", Paper: "> job (>1000)", Value: float64(global), Unit: "iterations", Clock: count, Lo: iters, Hi: inf, Open: true},
		{Figure: "Fig. 9", Quantity: "crash-resilient loss, last ÷ first", Paper: "< 1", Value: learned, Unit: "×", Clock: count, Lo: -inf, Hi: 1, Open: true},
	}, nil
}
