package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// Fig8Row is one batch-size point of the batched-decryption overhead
// experiment (paper Fig. 8): iteration time with encrypted vs
// unencrypted training data in PM.
//
// The paper reports a ~1.2x slowdown at the iteration level. In this
// reproduction the CNN compute runs in pure Go (~10-100x slower per
// FLOP than Darknet's C) while AES-GCM runs at native speed, so the
// decryption share of an iteration is smaller than the paper's; the
// fetch columns isolate the data-pipeline cost (batch read from PM +
// decrypt), where the overhead shape is preserved and robust.
type Fig8Row struct {
	BatchSize      int
	EncryptedIter  time.Duration
	PlainIter      time.Duration
	Overhead       float64 // encrypted / plain, full iteration
	EncryptedFetch time.Duration
	PlainFetch     time.Duration
	FetchOverhead  float64 // encrypted / plain, batch fetch only

	// AES-GCM bytes the engine opened per fetched batch: the accounted
	// decryption work, exact where the wall-clock columns are noisy.
	// The two fetch paths share every other step, so this is the whole
	// difference between them.
	EncryptedOpenedBytes int
	PlainOpenedBytes     int

	// encModeled and plainModeled are the modeled shares (PM and
	// enclave clocks) of EncryptedIter and PlainIter: the accounted
	// cost of an iteration, exact where the wall-clock share is noisy.
	encModeled, plainModeled time.Duration
}

// fig8Point is one run of a batch size, encrypted or plaintext.
type fig8Point struct {
	iter, iterModeled, fetch time.Duration
	opened                   int // AES bytes opened per fetched batch
}

// Fig8Result holds one server's sweep.
type Fig8Result struct {
	Server string
	Rows   []Fig8Row
}

// Fig8Config parameterises the sweep. The paper uses 5 LReLU conv
// layers and batch sizes up to 1000; filters and iteration counts are
// scaled so the pure-Go CNN finishes quickly while preserving the
// overhead ratio.
type Fig8Config struct {
	Server      core.ServerProfile
	BatchSizes  []int
	ConvLayers  int
	Filters     int
	Iters       int
	DatasetSize int
	Seed        int64
}

// RunFig8 measures the per-iteration cost of decrypting training
// batches from PM into enclave memory.
func RunFig8(cfg Fig8Config) (Fig8Result, error) {
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = []int{16, 32, 64, 128, 256}
	}
	if cfg.ConvLayers == 0 {
		cfg.ConvLayers = 5
	}
	if cfg.Filters == 0 {
		cfg.Filters = 4
	}
	if cfg.Iters == 0 {
		cfg.Iters = 3
	}
	if cfg.DatasetSize == 0 {
		cfg.DatasetSize = 512
	}
	if cfg.Server.Name == "" {
		cfg.Server = core.SGXEmlPM()
	}
	res := Fig8Result{Server: cfg.Server.Name}
	ds := mnist.Synthetic(cfg.DatasetSize, cfg.Seed)
	for _, batch := range cfg.BatchSizes {
		enc, err := runFig8Point(cfg, ds, batch, false)
		if err != nil {
			return Fig8Result{}, fmt.Errorf("fig8 batch %d encrypted: %w", batch, err)
		}
		plain, err := runFig8Point(cfg, ds, batch, true)
		if err != nil {
			return Fig8Result{}, fmt.Errorf("fig8 batch %d plain: %w", batch, err)
		}
		row := Fig8Row{
			BatchSize:            batch,
			EncryptedIter:        enc.iter,
			PlainIter:            plain.iter,
			EncryptedFetch:       enc.fetch,
			PlainFetch:           plain.fetch,
			EncryptedOpenedBytes: enc.opened,
			PlainOpenedBytes:     plain.opened,
			encModeled:           enc.iterModeled,
			plainModeled:         plain.iterModeled,
		}
		if plain.iter > 0 {
			row.Overhead = float64(enc.iter) / float64(plain.iter)
		}
		if plain.fetch > 0 {
			row.FetchOverhead = float64(enc.fetch) / float64(plain.fetch)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// openedBytes reads the process-wide count of sealed bytes the
// encryption engine has opened.
func openedBytes() float64 {
	return obs.Flatten(obs.Default())["engine_opened_bytes_total"]
}

func runFig8Point(cfg Fig8Config, ds *mnist.Dataset, batch int, plaintext bool) (fig8Point, error) {
	f, err := core.New(core.Config{
		ModelConfig:   darknet.MNISTConfig(cfg.ConvLayers, cfg.Filters, batch),
		Server:        cfg.Server,
		PMBytes:       128 << 20,
		Seed:          cfg.Seed,
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
	pm0 := f.PM.Clock().Modeled()
	encl0 := f.Enclave.Clock().Modeled()
	start := time.Now()
	if err := f.Train(context.Background(), core.StopAt(1+cfg.Iters)); err != nil {
		return fig8Point{}, err
	}
	wall := time.Since(start)
	modeled := (f.PM.Clock().Modeled() - pm0) + (f.Enclave.Clock().Modeled() - encl0)
	p := fig8Point{
		iter:        (wall + modeled) / time.Duration(cfg.Iters),
		iterModeled: modeled / time.Duration(cfg.Iters),
	}

	// Fetch-only measurement: read+decrypt batches without training.
	// Repetitions scale inversely with batch size, and the minimum of
	// three trials is kept — scheduler/GC noise only ever inflates a
	// wall-clock measurement, so the minimum is the clean estimate.
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	fetchReps := 4096 / batch
	if fetchReps < 32 {
		fetchReps = 32
	}
	if _, _, err := f.Data.Batch(rng, batch); err != nil { // warm-up
		return fig8Point{}, err
	}
	const trials = 3
	opened0 := openedBytes()
	for trial := 0; trial < trials; trial++ {
		pm1 := f.PM.Clock().Modeled()
		encl1 := f.Enclave.Clock().Modeled()
		fstart := time.Now()
		for i := 0; i < fetchReps; i++ {
			if _, _, err := f.Data.Batch(rng, batch); err != nil {
				return fig8Point{}, err
			}
		}
		fwall := time.Since(fstart)
		fmodeled := (f.PM.Clock().Modeled() - pm1) + (f.Enclave.Clock().Modeled() - encl1)
		got := (fwall + fmodeled) / time.Duration(fetchReps)
		if trial == 0 || got < p.fetch {
			p.fetch = got
		}
	}
	p.opened = int(openedBytes()-opened0) / (trials * fetchReps)
	return p, nil
}

// Print renders the Fig. 8 series.
func (r Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — %s: iteration time vs batch size\n", r.Server)
	tw := newTable(w)
	fmt.Fprintln(tw, "batch\titer enc (ms)\titer plain (ms)\titer ovh\tfetch enc (ms)\tfetch plain (ms)\tfetch ovh\tAES B/batch enc\tplain")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2fx\t%s\t%s\t%.2fx\t%d\t%d\n",
			row.BatchSize, ms(row.EncryptedIter), ms(row.PlainIter), row.Overhead,
			ms(row.EncryptedFetch), ms(row.PlainFetch), row.FetchOverhead,
			row.EncryptedOpenedBytes, row.PlainOpenedBytes)
	}
	tw.Flush()
}
