package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// Mirroring-frequency ablation (paper §VI, "Mirroring frequency"): the
// mirroring interval trades training overhead against the work lost at
// a crash. This experiment measures both ends for several frequencies.

// FreqRow is one frequency point.
type FreqRow struct {
	// Freq is the mirroring interval in iterations.
	Freq int
	// TrainTime is the wall+modeled time of the training run.
	TrainTime time.Duration
	// LostIters is how many iterations a crash at the end of the run
	// discards (work since the last mirror-out).
	LostIters int
}

// FreqResult holds the sweep.
type FreqResult struct {
	Iters int
	Rows  []FreqRow
}

// RunFreqAblation trains for the same iteration count at several
// mirroring frequencies, then crashes and measures the recovery point.
func RunFreqAblation(freqs []int, iters int, seed int64) (FreqResult, error) {
	if len(freqs) == 0 {
		freqs = []int{1, 2, 5, 10}
	}
	if iters == 0 {
		iters = 23
	}
	ds := mnist.Synthetic(256, seed)
	res := FreqResult{Iters: iters}
	for _, freq := range freqs {
		f, err := core.New(core.Config{
			ModelConfig: darknet.MNISTConfig(2, 4, 16),
			PMBytes:     32 << 20,
			MirrorFreq:  freq,
			Seed:        seed,
		})
		if err != nil {
			return FreqResult{}, err
		}
		if err := f.LoadDataset(ds); err != nil {
			return FreqResult{}, err
		}
		pm0 := f.PM.Clock().Modeled()
		start := time.Now()
		if err := f.Train(context.Background(), core.StopAt(iters)); err != nil {
			return FreqResult{}, fmt.Errorf("freq %d: %w", freq, err)
		}
		elapsed := time.Since(start) + (f.PM.Clock().Modeled() - pm0)
		f.Crash()
		if err := f.Recover(true); err != nil {
			return FreqResult{}, fmt.Errorf("freq %d recover: %w", freq, err)
		}
		res.Rows = append(res.Rows, FreqRow{
			Freq:      freq,
			TrainTime: elapsed,
			LostIters: iters - f.Iteration(),
		})
	}
	return res, nil
}

// Print renders the trade-off table.
func (r FreqResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Mirroring-frequency ablation (%d iterations)\n", r.Iters)
	tw := newTable(w)
	fmt.Fprintln(tw, "mirror every\ttrain time (ms)\titers lost at crash")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\n", row.Freq, ms(row.TrainTime), row.LostIters)
	}
	tw.Flush()
}
