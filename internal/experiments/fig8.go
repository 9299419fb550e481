package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// fig8Point is one run of a batch size, encrypted or plaintext.
type fig8Point struct {
	// iterModeled is the modeled share (PM and enclave clocks) of one
	// training iteration: the accounted cost, exact where a ratio of
	// two short wall-clock loops is noise.
	iterModeled time.Duration
	// opened is the AES-GCM bytes the engine opened per fetched batch.
	// The encrypted and plaintext fetch paths share every other step,
	// so this is the whole difference between them.
	opened int
}

// fig8 measures what decrypting training batches from PM into the
// enclave adds to an iteration (paper Fig. 8: ~1.2x). The paper uses 5
// conv layers and batches up to 1000; 2 conv layers of 4 filters and
// batches of 8 and 32 keep the pure-Go CNN fast.
func fig8() ([]Row, error) {
	ds := mnist.Synthetic(128, 1)
	sealedRow := engine.SealedLen(4 * (mnist.Rows*mnist.Cols + mnist.Classes))
	var rows []Row
	var enc, plain [2]fig8Point
	for i, batch := range []int{8, 32} {
		var err error
		if enc[i], err = runFig8Point(ds, batch, false); err != nil {
			return nil, fmt.Errorf("fig8 batch %d encrypted: %w", batch, err)
		}
		if plain[i], err = runFig8Point(ds, batch, true); err != nil {
			return nil, fmt.Errorf("fig8 batch %d plaintext: %w", batch, err)
		}
		want := float64(batch * sealedRow)
		rows = append(rows,
			Row{Figure: "Fig. 8", Quantity: fmt.Sprintf("AES bytes opened per encrypted batch of %d", batch), Paper: "batch × sealed row", Value: float64(enc[i].opened), Unit: "B", Clock: count, Lo: want, Hi: want},
			Row{Figure: "Fig. 8", Quantity: fmt.Sprintf("iteration encrypted ÷ plaintext, batch %d", batch), Paper: "≈1.2", Value: float64(enc[i].iterModeled) / float64(plain[i].iterModeled), Unit: "×", Clock: modeled, Lo: 1, Hi: 3})
	}
	growth := min(float64(enc[1].iterModeled)/float64(enc[0].iterModeled), float64(plain[1].iterModeled)/float64(plain[0].iterModeled))
	return append(rows,
		Row{Figure: "Fig. 8", Quantity: "AES bytes opened per plaintext batch, both sizes", Paper: "0", Value: float64(plain[0].opened + plain[1].opened), Unit: "B", Clock: count, Lo: 0, Hi: 0},
		Row{Figure: "Fig. 8", Quantity: "iteration, batch 32 ÷ batch 8, min of encrypted and plaintext", Paper: "grows with batch", Value: growth, Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
	), nil
}

// openedBytes reads the process-wide count of sealed bytes the
// encryption engine has opened.
func openedBytes() float64 {
	return obs.Flatten(obs.Default())["engine_opened_bytes_total"]
}

func runFig8Point(ds *mnist.Dataset, batch int, plaintext bool) (fig8Point, error) {
	const iters, fetches = 2, 8
	f, err := core.New(core.Config{
		ModelConfig:   darknet.MNISTConfig(2, 4, batch),
		Server:        core.SGXEmlPM(),
		PMBytes:       128 << 20,
		Seed:          1,
		PlaintextData: plaintext,
	})
	if err != nil {
		return fig8Point{}, err
	}
	if err := f.LoadDataset(ds); err != nil {
		return fig8Point{}, err
	}
	// Warm-up iteration (allocates layer workspaces).
	if err := f.Train(context.Background(), core.StopAt(1)); err != nil {
		return fig8Point{}, err
	}
	pm0, encl0 := f.PM.Clock().Modeled(), f.Enclave.Clock().Modeled()
	if err := f.Train(context.Background(), core.StopAt(1+iters)); err != nil {
		return fig8Point{}, err
	}
	modeled := (f.PM.Clock().Modeled() - pm0) + (f.Enclave.Clock().Modeled() - encl0)

	// Fetch-only: read and open batches without training.
	rng := rand.New(rand.NewSource(10))
	opened0 := openedBytes()
	for i := 0; i < fetches; i++ {
		if _, _, err := f.Data.Batch(rng, batch); err != nil {
			return fig8Point{}, err
		}
	}
	return fig8Point{
		iterModeled: modeled / iters,
		opened:      int(openedBytes()-opened0) / fetches,
	}, nil
}
