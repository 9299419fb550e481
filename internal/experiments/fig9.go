package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
)

// Fig9Result holds the crash-resilience experiment (paper Fig. 9):
// training loss curves with random crash/resume cycles for the
// crash-resilient system (mirroring on) and the non-resilient baseline
// (mirroring off, restart from scratch).
type Fig9Result struct {
	// Baseline is the no-crash loss curve, indexed by iteration.
	Baseline []float32
	// Resilient is the loss curve with crashes; same index space
	// because recovery resumes at the mirrored iteration.
	Resilient []float32
	// CrashIters are the iterations at which crashes were injected.
	CrashIters []int
	// NonResilient is the loss per executed iteration counted from the
	// start of the job; restarts re-learn from scratch, so its length
	// exceeds the target (the paper's >1000 for a 500-iteration job).
	NonResilient []float32
	// NonResilientTotal is the total executed iterations the
	// non-resilient run needed to finish the target.
	NonResilientTotal int
}

// Fig9Config parameterises the experiment.
type Fig9Config struct {
	Server     core.ServerProfile
	Iters      int
	Crashes    int
	ConvLayers int
	Filters    int
	Batch      int
	Dataset    int
	Seed       int64
}

func (c *Fig9Config) setDefaults() {
	if c.Server.Name == "" {
		c.Server = core.EmlSGXPM() // the paper reports Fig. 9 on emlSGX-PM
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.Crashes == 0 {
		c.Crashes = 4
	}
	if c.ConvLayers == 0 {
		// The paper uses 5 conv layers; 3 wider layers learn visibly
		// within the scaled iteration budget of the pure-Go CNN.
		c.ConvLayers = 3
	}
	if c.Filters == 0 {
		c.Filters = 8
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Dataset == 0 {
		c.Dataset = 512
	}
}

// RunFig9 trains three runs: a no-crash baseline, a crash-resilient run
// with random crash/recover cycles, and a non-resilient run crashed at
// the same global steps.
func RunFig9(cfg Fig9Config) (Fig9Result, error) {
	cfg.setDefaults()
	ds := mnist.Synthetic(cfg.Dataset, cfg.Seed)
	modelCfg := darknet.MNISTConfig(cfg.ConvLayers, cfg.Filters, cfg.Batch)

	// Crash points: distinct iterations in the middle 80% of the run.
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	crashSet := map[int]bool{}
	for len(crashSet) < cfg.Crashes {
		crashSet[cfg.Iters/10+rng.Intn(cfg.Iters*8/10)] = true
	}
	var crashIters []int
	for it := range crashSet {
		crashIters = append(crashIters, it)
	}
	sort.Ints(crashIters)

	res := Fig9Result{CrashIters: crashIters}

	// Baseline: no crashes.
	baseline, err := newFig9Framework(modelCfg, cfg, 1)
	if err != nil {
		return Fig9Result{}, err
	}
	if err := baseline.LoadDataset(ds); err != nil {
		return Fig9Result{}, err
	}
	res.Baseline = make([]float32, 0, cfg.Iters)
	if err := baseline.Train(context.Background(), core.StopAt(cfg.Iters), core.WithProgress(func(_ int, l float32) {
		res.Baseline = append(res.Baseline, l)
	})); err != nil {
		return Fig9Result{}, fmt.Errorf("fig9 baseline: %w", err)
	}

	// Crash-resilient run.
	resilient, err := newFig9Framework(modelCfg, cfg, 1)
	if err != nil {
		return Fig9Result{}, err
	}
	if err := resilient.LoadDataset(ds); err != nil {
		return Fig9Result{}, err
	}
	res.Resilient = make([]float32, 0, cfg.Iters)
	record := func(_ int, l float32) { res.Resilient = append(res.Resilient, l) }
	for _, crashAt := range crashIters {
		if err := resilient.Train(context.Background(), core.StopAt(crashAt), core.WithProgress(record)); err != nil {
			return Fig9Result{}, fmt.Errorf("fig9 resilient: %w", err)
		}
		resilient.Crash()
		if err := resilient.Recover(true); err != nil {
			return Fig9Result{}, fmt.Errorf("fig9 resilient recover: %w", err)
		}
	}
	if err := resilient.Train(context.Background(), core.StopAt(cfg.Iters), core.WithProgress(record)); err != nil {
		return Fig9Result{}, fmt.Errorf("fig9 resilient tail: %w", err)
	}

	// Non-resilient run: mirroring disabled, crashed at the same global
	// steps; every restart begins from random weights.
	fresh, err := newFig9Framework(modelCfg, cfg, -1)
	if err != nil {
		return Fig9Result{}, err
	}
	if err := fresh.LoadDataset(ds); err != nil {
		return Fig9Result{}, err
	}
	global := 0
	recordFresh := func(_ int, l float32) {
		res.NonResilient = append(res.NonResilient, l)
		global++
	}
	for _, crashAt := range crashIters {
		// Train until the global step count reaches the crash point.
		need := crashAt - global
		if need > 0 {
			if err := fresh.Train(context.Background(), core.StopAt(fresh.Iteration()+need), core.WithProgress(recordFresh)); err != nil {
				return Fig9Result{}, fmt.Errorf("fig9 non-resilient: %w", err)
			}
		}
		fresh.Crash()
		if err := fresh.Recover(true); err != nil {
			return Fig9Result{}, fmt.Errorf("fig9 non-resilient recover: %w", err)
		}
	}
	// Final segment: the model still needs the full cfg.Iters from its
	// last restart.
	if err := fresh.Train(context.Background(), core.StopAt(cfg.Iters), core.WithProgress(recordFresh)); err != nil {
		return Fig9Result{}, fmt.Errorf("fig9 non-resilient tail: %w", err)
	}
	res.NonResilientTotal = global
	return res, nil
}

func newFig9Framework(modelCfg string, cfg Fig9Config, mirrorFreq int) (*core.Framework, error) {
	return core.New(core.Config{
		ModelConfig: modelCfg,
		Server:      cfg.Server,
		PMBytes:     64 << 20,
		MirrorFreq:  mirrorFreq,
		Seed:        cfg.Seed,
	})
}

// Print renders summary statistics of the three curves.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 9 — crash resilience (loss curves)")
	tw := newTable(w)
	fmt.Fprintln(tw, "run\titerations\tfirst loss\tlast loss\tcrashes")
	if len(r.Baseline) > 0 {
		fmt.Fprintf(tw, "no crash\t%d\t%.3f\t%.3f\t0\n", len(r.Baseline), r.Baseline[0], r.Baseline[len(r.Baseline)-1])
	}
	if len(r.Resilient) > 0 {
		fmt.Fprintf(tw, "crash resilient\t%d\t%.3f\t%.3f\t%d\n", len(r.Resilient), r.Resilient[0], r.Resilient[len(r.Resilient)-1], len(r.CrashIters))
	}
	if len(r.NonResilient) > 0 {
		fmt.Fprintf(tw, "non-resilient\t%d\t%.3f\t%.3f\t%d\n", r.NonResilientTotal, r.NonResilient[0], r.NonResilient[len(r.NonResilient)-1], len(r.CrashIters))
	}
	tw.Flush()
	fmt.Fprintf(w, "crash points: %v\n", r.CrashIters)
}
