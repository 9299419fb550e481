package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"plinius"
)

// trainResume is the train-resume workload: a small CNN trained on an
// encrypted in-PM dataset, mirrored every iteration, crashed and
// recovered at a fixed cadence. Compute dominates; every recovery must
// lose no work.
type trainResume struct {
	p params
	f *plinius.Framework
}

const (
	trainBatch      = 32
	trainDatasetN   = 4096
	trainWarmIters  = 4
	trainIters      = 540 // at the 20 s reference: ~35 ms per iteration
	trainCrashEvery = 18
)

func (w *trainResume) setup(p params) error {
	w.p = p
	rows := trainDatasetN
	if p.quick {
		rows = 256
	}
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(2, 8, trainBatch),
		Seed:        p.seed,
	})
	if err != nil {
		return err
	}
	if err := f.LoadDataset(plinius.SyntheticDataset(rows, p.seed)); err != nil {
		return err
	}
	// Warm-up: allocates the mirror and takes the first mirror-out, so
	// the measured section starts in steady state.
	if err := f.Train(context.Background(), plinius.StopAt(trainWarmIters)); err != nil {
		return err
	}
	w.f = f
	return nil
}

func (w *trainResume) close() error {
	w.f = nil
	return nil
}

func (w *trainResume) measure(ps *pass, rec *recorder, root int) error {
	f := w.f
	rounds := w.p.ops(trainIters) / trainCrashEvery
	if rounds < 1 {
		rounds = 1
	}
	before := snapCounters()
	phase := rec.begin("train", root, 0)
	startIter := f.Iteration()
	for r := 0; r < rounds; r++ {
		target := f.Iteration() + trainCrashEvery
		roundStart := time.Now()
		last := roundStart
		err := f.Train(context.Background(), plinius.StopAt(target),
			plinius.WithProgress(func(iter int, _ float32) {
				now := time.Now()
				ps.observe("iter_wall_ms", ms(now.Sub(last)))
				rec.add("iteration", phase, iter, last, now)
				last = now
			}))
		if err != nil {
			return fmt.Errorf("train to %d: %w", target, err)
		}
		wantIter, wantHash := f.Iteration(), paramHash(f)
		ps.check(wantIter == target, "round %d: trained to iteration %d, want %d", r, wantIter, target)

		// The recovery allocates a fresh model; collecting first lets
		// every recovery meet the same heap.
		id := rec.begin("gc", phase, target)
		runtime.GC()
		rec.end(id)
		vt := startVirtual(f)
		f.Crash()
		if err := f.Recover(true); err != nil {
			return fmt.Errorf("recover at %d: %w", target, err)
		}
		observeVirtual(ps, rec, phase, target, "recover", vt.stop())
		ps.check(f.Iteration() == wantIter, "round %d: recovered at iteration %d, want %d (lost work)", r, f.Iteration(), wantIter)
		ps.check(paramHash(f) == wantHash, "round %d: recovered parameters differ from the pre-crash model", r)
		ps.observe("round_ms_per_sample", ms(time.Since(roundStart))/(trainCrashEvery*trainBatch))
	}
	rec.end(phase)
	after := snapCounters()

	iters := f.Iteration() - startIter
	perIter := func(name, family string) {
		ps.emit(name, after.since(before, family)/float64(iters), "count", 0, baseExact+" per iteration, whole section")
	}
	perIter("darknet.gemm_blocked_per_iter", "darknet_gemm_blocked_total")
	perIter("pm.flushed_lines_per_save", "pm_flushed_lines_total")
	perIter("pm.fences_per_save", "pm_fences_total")
	perIter("engine.seal_ops_per_save", "engine_seal_ops_total")
	return nil
}

func (w *trainResume) summarize(ps *pass) {
	// A round is trainCrashEvery iterations plus the crash and recovery
	// that end it; like a segment, the lower-quartile round is the one
	// outside interference touched least.
	rounds := ps.timings["round_ms_per_sample"]
	ps.emit("train_samples_per_s", 1000/rounds.quantile(0.25), "samples/s", len(rounds), baseWall+", lower-quartile round incl. its recovery")
	ps.emitQuantile("recover_ms_p50", "recover_ms", 0.5, 1, baseVirtual)
	ps.emitQuantile("iter_ms_p50", "iter_wall_ms", 0.5, 2*segments, baseWall)
	ps.emitQuantile("iter_ms_p90", "iter_wall_ms", 0.9, segments, baseWall)
}

func (w *trainResume) probe(ps *pass, rec *recorder, root int) error {
	f := w.f
	phase := rec.begin("probes", root, 0)
	defer rec.end(phase)
	rng := rand.New(rand.NewSource(w.p.seed + 7))
	n := 100
	if w.p.quick {
		n = 3
	}
	x, y, err := f.Data.Batch(rng, trainBatch)
	if err != nil {
		return err
	}
	m0 := mallocs()
	train, err := timeCalls(rec, phase, "darknet.TrainBatch", (n+2)/3, func() error {
		_, err := f.Net.TrainBatch(x, y, trainBatch)
		return err
	})
	if err != nil {
		return err
	}
	allocs := float64(mallocs()-m0) / float64(len(train))
	batch, err := timeCalls(rec, phase, "mirror.DataMatrix.Batch", n, func() error {
		_, _, err := f.Data.Batch(rng, trainBatch)
		return err
	})
	if err != nil {
		return err
	}
	ps.emit("darknet.train_batch_ms_p50", train.median(), "ms", len(train), baseWall+" probe")
	ps.emit("darknet.allocs_per_iter", allocs, "count", len(train), "MemStats.Mallocs delta")
	ps.emit("mirror.batch_ms_p50", batch.median(), "ms", len(batch), baseWall+" probe")
	out, err := probeMirror(ps, rec, phase, f, n)
	if err != nil {
		return err
	}

	iter := ps.value("iter_ms_p50")
	ps.emit("core.iter_ms_p50", iter, "ms", ps.entries["iter_ms_p50"].n, baseWall)
	ps.emit("core.recover_wall_ms_p50", ps.timings["recover_wall_ms"].median(), "ms", len(ps.timings["recover_wall_ms"]), baseWall)
	if iter > 0 {
		ps.emit("core.orchestration_share", 1-(train.median()+batch.median()+out)/iter, "ratio", 0, "1 - layer probe medians / iteration median")
	}
	return nil
}
