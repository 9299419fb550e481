package experiments

import (
	"context"
	"fmt"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// freq is the mirroring-frequency ablation (paper §VI, "Mirroring
// frequency"): the mirroring interval trades training overhead against
// the work lost at a crash. A 13-iteration run mirrored every 1 and
// every 5 iterations is crashed at its end; the rows count the
// iterations recovery discards.
func freq() ([]Row, error) {
	const iters, seed = 13, 5
	ds := mnist.Synthetic(256, seed)
	var rows []Row
	// Mirroring every iteration loses none; every 5 loses 13 - 10.
	for _, c := range []struct{ freq, lost int }{{1, 0}, {5, 3}} {
		f, err := core.New(core.Config{
			ModelConfig: darknet.MNISTConfig(2, 4, 16),
			PMBytes:     32 << 20,
			MirrorFreq:  c.freq,
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		if err := f.LoadDataset(ds); err != nil {
			return nil, err
		}
		if err := f.Train(context.Background(), core.StopAt(iters)); err != nil {
			return nil, fmt.Errorf("freq %d: %w", c.freq, err)
		}
		f.Crash()
		if err := f.Recover(true); err != nil {
			return nil, fmt.Errorf("freq %d recover: %w", c.freq, err)
		}
		rows = append(rows, Row{Figure: "Freq", Quantity: fmt.Sprintf("iterations lost at a crash, mirrored every %d", c.freq), Paper: "extension", Value: float64(iters - f.Iteration()), Unit: "iterations", Clock: count, Lo: float64(c.lost), Hi: float64(c.lost)})
	}
	return rows, nil
}
