// Command plinius-bench regenerates the tables and figures of the
// Plinius paper's evaluation (§VI) on the emulated substrates.
//
// Usage:
//
//	plinius-bench -exp all            # every experiment
//	plinius-bench -exp fig7           # one experiment
//	plinius-bench -exp fig7 -quick    # scaled-down fast run
//
// Experiments: fig2, fig6, fig7, table1a, table1b, fig8, fig9, fig10,
// inference, tcb, freq, coloc, all.
//
// Serving, checkpoint and kernel performance is measured by the
// repository benchmark (benchmark/, BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"plinius/internal/core"
	"plinius/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig2|fig6|fig7|table1a|table1b|fig8|fig9|fig10|inference|tcb|freq|coloc|all)")
	quick := flag.Bool("quick", false, "scaled-down parameters for a fast run")
	seed := flag.Int64("seed", 42, "random seed")
	root := flag.String("root", ".", "repository root (for -exp tcb)")
	flag.Parse()

	if err := run(*exp, *quick, *seed, *root); err != nil {
		fmt.Fprintln(os.Stderr, "plinius-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, quick bool, seed int64, root string) error {
	runners := map[string]func(bool, int64, string) error{
		"fig2":      runFig2,
		"fig6":      runFig6,
		"fig7":      runFig7,
		"table1a":   runTable1a,
		"table1b":   runTable1b,
		"fig8":      runFig8,
		"fig9":      runFig9,
		"fig10":     runFig10,
		"inference": runInference,
		"tcb":       runTCB,
		"freq":      runFreq,
		"coloc":     runColoc,
	}
	if exp == "all" {
		order := []string{"fig2", "fig6", "fig7", "table1a", "table1b", "fig8", "fig9", "fig10", "inference", "tcb", "freq", "coloc"}
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](quick, seed, root); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(quick, seed, root)
}

func runFig2(quick bool, _ int64, _ string) error {
	fileMB := 512
	if quick {
		fileMB = 32
	}
	res, err := experiments.RunFig2([]int{1, 2, 4, 8}, fileMB)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runFig6(quick bool, _ int64, _ string) error {
	sizes := []int{2, 8, 32, 64, 128, 512, 1024, 2048}
	tx := 20
	if quick {
		sizes = []int{2, 32, 256, 1024}
		tx = 5
	}
	res, err := experiments.RunFig6(sizes, tx)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func fig7Sweep(quick bool, seed int64) (experiments.Fig7Result, experiments.Fig7Result, error) {
	sizes := []int{10, 22, 33, 44, 56, 67, 78, 89, 100}
	reps := 3
	if quick {
		sizes = []int{10, 44, 100}
		reps = 1
	}
	a, err := experiments.RunFig7(core.SGXEmlPM(), sizes, reps, seed)
	if err != nil {
		return experiments.Fig7Result{}, experiments.Fig7Result{}, err
	}
	b, err := experiments.RunFig7(core.EmlSGXPM(), sizes, reps, seed)
	if err != nil {
		return experiments.Fig7Result{}, experiments.Fig7Result{}, err
	}
	return a, b, nil
}

func runFig7(quick bool, seed int64, _ string) error {
	a, b, err := fig7Sweep(quick, seed)
	if err != nil {
		return err
	}
	a.Print(os.Stdout)
	fmt.Println()
	b.Print(os.Stdout)
	return nil
}

func runTable1a(quick bool, seed int64, _ string) error {
	a, b, err := fig7Sweep(quick, seed)
	if err != nil {
		return err
	}
	experiments.ComputeTable1a(a).Print(os.Stdout)
	fmt.Println()
	experiments.ComputeTable1a(b).Print(os.Stdout)
	return nil
}

func runTable1b(quick bool, seed int64, _ string) error {
	a, b, err := fig7Sweep(quick, seed)
	if err != nil {
		return err
	}
	experiments.ComputeTable1b(a).Print(os.Stdout)
	fmt.Println()
	experiments.ComputeTable1b(b).Print(os.Stdout)
	return nil
}

func runFig8(quick bool, seed int64, _ string) error {
	cfg := experiments.Fig8Config{Seed: seed}
	if quick {
		cfg.BatchSizes = []int{16, 64}
		cfg.ConvLayers = 2
		cfg.Iters = 2
		cfg.DatasetSize = 256
	}
	for _, server := range []core.ServerProfile{core.SGXEmlPM(), core.EmlSGXPM()} {
		cfg.Server = server
		res, err := experiments.RunFig8(cfg)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
	}
	return nil
}

func runFig9(quick bool, seed int64, _ string) error {
	cfg := experiments.Fig9Config{Seed: seed}
	if quick {
		cfg.Iters = 24
		cfg.Crashes = 2
		cfg.ConvLayers = 2
		cfg.Dataset = 256
	}
	res, err := experiments.RunFig9(cfg)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runFig10(quick bool, seed int64, _ string) error {
	cfg := experiments.Fig10Config{Seed: seed}
	if quick {
		cfg.TargetIters = 16
		cfg.ItersPerInterval = 2
		cfg.ConvLayers = 1
		cfg.Dataset = 256
	}
	res, err := experiments.RunFig10(cfg)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runInference(quick bool, seed int64, _ string) error {
	cfg := experiments.InferenceConfig{Seed: seed}
	if quick {
		cfg.Iters = 40
		cfg.Train = 600
		cfg.Test = 200
	}
	res, err := experiments.RunInference(cfg)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runTCB(_ bool, _ int64, root string) error {
	res, err := experiments.RunTCB(root)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runColoc(quick bool, seed int64, _ string) error {
	// 56 MB of parameters + 15 MB overhead per tenant: one fits the
	// 93.5 MB usable EPC, two overcommit it — the shared knee.
	sizeMB, tenants, reps := 56, 3, 3
	if quick {
		sizeMB, tenants, reps = 40, 2, 1
	}
	res, err := experiments.RunColoc(core.SGXEmlPM(), sizeMB, tenants, reps, seed)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}

func runFreq(quick bool, seed int64, _ string) error {
	freqs := []int{1, 2, 5, 10}
	iters := 23
	if quick {
		freqs = []int{1, 5}
		iters = 13
	}
	res, err := experiments.RunFreqAblation(freqs, iters, seed)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	return nil
}
