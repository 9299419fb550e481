package experiments

import (
	"fmt"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
	"plinius/internal/spot"
)

// fig10 is the spot-instance experiment (paper Fig. 10, on emlSGX-PM):
// training driven by a price trace at the paper's maximum bid, with and
// without crash resilience. The trace is runnable, outbid, runnable,
// outbid, then runnable to the end, so both runs hit two interruptions
// mid-job, as in the paper's Fig. 10(b).
func fig10() ([]Row, error) {
	const target, seed = 12, 3
	trace := spot.Trace{Prices: []float64{0.05, 0.05, 0.12, 0.05, 0.05, 0.12, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}}
	cfg := spot.Config{MaxBid: 0.0955, TargetIters: target, ItersPerInterval: 2}
	ds := mnist.Synthetic(128, seed)
	// run returns the spot result and the model's final iteration: for
	// the resilient run the iterations executed, for the non-resilient
	// run only the progress since its last restart (Fig. 10c).
	run := func(mirrorFreq int) (spot.Result, int, error) {
		f, err := core.New(core.Config{
			ModelConfig: darknet.MNISTConfig(1, 4, 16),
			Server:      core.EmlSGXPM(),
			PMBytes:     64 << 20,
			MirrorFreq:  mirrorFreq,
			Seed:        seed,
		})
		if err != nil {
			return spot.Result{}, 0, err
		}
		if err := f.LoadDataset(ds); err != nil {
			return spot.Result{}, 0, err
		}
		sr, err := spot.Run(trace, cfg, &core.SpotTrainer{F: f})
		return sr, f.Iteration(), err
	}
	res, resIter, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("fig10 resilient: %w", err)
	}
	non, nonIter, err := run(-1)
	if err != nil {
		return nil, fmt.Errorf("fig10 non-resilient: %w", err)
	}
	completed := 0.0
	if res.Completed {
		completed = 1
	}
	return []Row{
		{Figure: "Fig. 10", Quantity: "crash-resilient run completed the job", Paper: "yes", Value: completed, Unit: "bool", Clock: count, Lo: 1, Hi: 1},
		{Figure: "Fig. 10", Quantity: "interruptions hit, min of both runs", Paper: "2", Value: float64(min(res.Interruptions, non.Interruptions)), Unit: "interruptions", Clock: count, Lo: 0, Hi: inf, Open: true},
		{Figure: "Fig. 10", Quantity: "crash-resilient final model iteration (12-iteration job)", Paper: "= job (500)", Value: float64(resIter), Unit: "iterations", Clock: count, Lo: target, Hi: target},
		{Figure: "Fig. 10", Quantity: "non-resilient final model iteration", Paper: "< job", Value: float64(nonIter), Unit: "iterations", Clock: count, Lo: -inf, Hi: target, Open: true},
	}, nil
}
