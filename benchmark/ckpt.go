package main

import (
	"fmt"
	"runtime"

	"plinius"
	"plinius/internal/pm"
	"plinius/internal/romulus"
)

// ckptLarge is the ckpt-large workload: a 64 MiB synthetic model
// (below the EPC knee) cycled through mirror save, restore,
// publication and crash recovery. AES-GCM, the mirror fan-out, Romulus
// and the PM device do all the work; the network never runs.
type ckptLarge struct {
	p params
	f *plinius.Framework
}

const (
	ckptModelBytes = 64 << 20
	ckptPMBytes    = 640 << 20
	ckptCycles     = 20 // at the 20 s reference: ~1 s per cycle
	// overKneeBytes sizes the traced run's over-the-knee model: with
	// the default 15 MiB of enclave overhead it exceeds the 93.5 MiB
	// usable EPC, so a save pays page swaps.
	overKneeBytes = 96 << 20
)

func (w *ckptLarge) modelBytes() int {
	if w.p.quick {
		return 2 << 20
	}
	return ckptModelBytes
}

func (w *ckptLarge) setup(p params) error {
	w.p = p
	pmBytes := ckptPMBytes
	if p.quick {
		pmBytes = 32 << 20
	}
	f, err := newSynthetic(w.modelBytes(), pmBytes, p.seed)
	if err != nil {
		return err
	}
	// First save and publication allocate the mirror and the
	// publication table, so measured cycles only overwrite.
	if _, err := f.MirrorSave(); err != nil {
		return err
	}
	if _, err := f.Publish(); err != nil {
		return err
	}
	w.f = f
	return nil
}

func newSynthetic(modelBytes, pmBytes int, seed int64) (*plinius.Framework, error) {
	cfg, err := plinius.SyntheticModelConfig(modelBytes)
	if err != nil {
		return nil, err
	}
	return plinius.New(plinius.Config{ModelConfig: cfg, PMBytes: pmBytes, Seed: seed})
}

func (w *ckptLarge) close() error {
	// Three 640 MiB PM devices would otherwise be live at once while
	// set-up repeats.
	w.f = nil
	runtime.GC()
	return nil
}

// fill overwrites every parameter with a value derived from v: a
// perturbation before a save, a scribble before a restore.
func fill(f *plinius.Framework, v float32) {
	for _, l := range f.Net.Layers {
		for _, p := range l.Params() {
			for i := range p {
				p[i] = v + float32(i&1023)*1e-6
			}
		}
	}
}

// countedFamilies are the exact counters sampled around every save and
// restore of the measured section.
var countedFamilies = []string{
	"pm_bytes_stored_total", "pm_flushed_lines_total", "pm_fences_total",
	"engine_seal_ops_total", "engine_opened_bytes_total", "epc_page_swaps_total",
}

func (w *ckptLarge) measure(ps *pass, rec *recorder, root int) error {
	f := w.f
	cycles := w.p.ops(ckptCycles)
	phase := rec.begin("cycle", root, 0)
	saveCounts := make(map[string]float64)
	restoreCounts := make(map[string]float64)
	accumulate := func(into map[string]float64, before counters) {
		after := snapCounters()
		for _, fam := range countedFamilies {
			into[fam] += after.since(before, fam)
		}
	}
	mutate := func(op int, v float32) {
		id := rec.begin("mutate", phase, op)
		fill(f, v)
		rec.end(id)
	}
	base := float32(w.p.seed%97) * 0.01
	for c := 0; c < cycles; c++ {
		mutate(c, base+float32(c+1)*0.001)
		f.Net.Iteration = c + 1
		id := rec.begin("hash", phase, c)
		want := paramHash(f)
		rec.end(id)

		before := snapCounters()
		vt := startVirtual(f)
		if _, err := f.MirrorSave(); err != nil {
			return fmt.Errorf("cycle %d save: %w", c, err)
		}
		observeVirtual(ps, rec, phase, c, "save", vt.stop())
		accumulate(saveCounts, before)

		mutate(c, -1)
		before = snapCounters()
		vt = startVirtual(f)
		if _, err := f.MirrorRestore(); err != nil {
			return fmt.Errorf("cycle %d restore: %w", c, err)
		}
		observeVirtual(ps, rec, phase, c, "restore", vt.stop())
		accumulate(restoreCounts, before)
		id = rec.begin("hash", phase, c)
		ps.check(paramHash(f) == want, "cycle %d: restored parameters differ from the saved model", c)
		rec.end(id)

		vt = startVirtual(f)
		if _, err := f.Publish(); err != nil {
			return fmt.Errorf("cycle %d publish: %w", c, err)
		}
		observeVirtual(ps, rec, phase, c, "publish", vt.stop())

		// The recovery allocates a fresh 64 MiB model; without a
		// collection first its wall time swings 270 to 1600 ms with the
		// collector's phase.
		id = rec.begin("gc", phase, c)
		runtime.GC()
		rec.end(id)
		vt = startVirtual(f)
		f.Crash()
		if err := f.Recover(true); err != nil {
			return fmt.Errorf("cycle %d recover: %w", c, err)
		}
		observeVirtual(ps, rec, phase, c, "recover", vt.stop())
		id = rec.begin("hash", phase, c)
		ps.check(f.Iteration() == c+1, "cycle %d: recovered at iteration %d, want %d", c, f.Iteration(), c+1)
		ps.check(paramHash(f) == want, "cycle %d: recovered parameters differ from the pre-crash model", c)
		rec.end(id)
	}
	rec.end(phase)

	n := float64(cycles)
	model := float64(f.Net.ParamBytes())
	ps.emit("pm.bytes_stored_per_model_byte", saveCounts["pm_bytes_stored_total"]/n/model, "ratio", 0, baseExact)
	ps.emit("pm.flushed_lines_per_save", saveCounts["pm_flushed_lines_total"]/n, "count", 0, baseExact)
	ps.emit("pm.fences_per_save", saveCounts["pm_fences_total"]/n, "count", 0, baseExact)
	ps.emit("engine.seal_ops_per_save", saveCounts["engine_seal_ops_total"]/n, "count", 0, baseExact)
	ps.emit("engine.opened_bytes_per_restore", restoreCounts["engine_opened_bytes_total"]/n, "bytes", 0, baseExact)
	ps.emit("enclave.page_swaps_per_save", saveCounts["epc_page_swaps_total"]/n, "count", 0, baseExact)
	return nil
}

func (w *ckptLarge) summarize(ps *pass) {
	for _, op := range []string{"save", "restore", "publish", "recover"} {
		ps.emitQuantile(op+"_ms_p50", op+"_ms", 0.5, 1, baseVirtual)
	}
}

func (w *ckptLarge) probe(ps *pass, rec *recorder, root int) error {
	f := w.f
	n := 10
	if w.p.quick {
		n = 2
	}
	phase := rec.begin("probes", root, 0)
	defer rec.end(phase)

	out, err := probeMirror(ps, rec, phase, f, n)
	if err != nil {
		return err
	}
	if err := probeEngine(ps, rec, phase, f); err != nil {
		return err
	}
	if err := probeRomulus(ps, rec, phase, n); err != nil {
		return err
	}

	med := func(t string) float64 { return ps.timings[t].median() }
	count := func(t string) int { return len(ps.timings[t]) }
	ps.emit("pm.modeled_ms_per_save", med("save_pm_ms"), "ms", count("save_pm_ms"), baseModeled)
	ps.emit("pm.modeled_ms_per_restore", med("restore_pm_ms"), "ms", count("restore_pm_ms"), baseModeled)
	ps.emit("enclave.modeled_ms_per_save", med("save_encl_ms"), "ms", count("save_encl_ms"), baseModeled)
	ps.emit("enclave.modeled_ms_per_restore", med("restore_encl_ms"), "ms", count("restore_encl_ms"), baseModeled)
	ps.emit("enclave.peak_resident_mb", mib(f.Host.Stats().PeakResidentBytes), "MiB", 0, "Host.Stats high-water mark")
	ps.emit("core.save_wall_ms_p50", med("save_wall_ms"), "ms", count("save_wall_ms"), baseWall)
	ps.emit("core.recover_wall_ms_p50", med("recover_wall_ms"), "ms", count("recover_wall_ms"), baseWall)
	ps.emit("core.save_ms_p90", ps.timings["save_ms"].quantile(0.9), "ms", count("save_ms"), baseVirtual)
	ps.emit("core.restore_ms_p90", ps.timings["restore_ms"].quantile(0.9), "ms", count("restore_ms"), baseVirtual)
	if save := med("save_wall_ms"); save > 0 {
		ps.emit("core.orchestration_share", 1-out/save, "ratio", 0, "1 - mirror-out probe median / save wall median")
	}

	if err := w.probeSSD(ps, rec, phase); err != nil {
		return err
	}
	if w.p.quick {
		return nil
	}
	return probeOverKnee(ps, rec, phase, w.p.seed)
}

// probeMirror calls the mirror module's entry points directly on the
// framework's own model, n times each, and returns the mirror-out
// median in ms.
func probeMirror(ps *pass, rec *recorder, phase int, f *plinius.Framework, n int) (float64, error) {
	before := snapCounters()
	m0 := mallocs()
	out, err := timeCalls(rec, phase, "mirror.MirrorOut", n, func() error { return f.Mirror.MirrorOut(f.Net) })
	if err != nil {
		return 0, err
	}
	m1 := mallocs()
	sealed := snapCounters().since(before, "mirror_sealed_payload_bytes_total")
	in, err := timeCalls(rec, phase, "mirror.MirrorIn", n, func() error {
		_, err := f.Mirror.MirrorIn(f.Net)
		return err
	})
	if err != nil {
		return 0, err
	}
	m2 := mallocs()
	// The last call's seal/open time, summed over the fan-out's
	// workers, against that call's wall time: above 1 means the AES
	// work overlapped on several cores.
	sealShare := ms(f.Mirror.LastSealDuration()) / out[len(out)-1]
	openShare := ms(f.Mirror.LastOpenDuration()) / in[len(in)-1]

	ps.emit("mirror.out_ms_p50", out.median(), "ms", len(out), baseWall+" probe")
	ps.emit("mirror.in_ms_p50", in.median(), "ms", len(in), baseWall+" probe")
	ps.emit("mirror.seal_share", sealShare, "ratio", 1, "AES seal worker-time / mirror-out wall, last probe call")
	ps.emit("mirror.open_share", openShare, "ratio", 1, "AES open worker-time / mirror-in wall, last probe call")
	ps.emit("mirror.allocs_per_save", float64(m1-m0)/float64(n), "count", n, "MemStats.Mallocs delta")
	ps.emit("mirror.allocs_per_restore", float64(m2-m1)/float64(n), "count", n, "MemStats.Mallocs delta")
	ps.emit("mirror.sealed_bytes_per_model_byte", sealed/float64(n)/float64(f.Net.ParamBytes()), "ratio", 0, baseExact)
	return out.median(), nil
}

// probeEngine seals and opens one synthetic-layer-sized buffer on a
// single goroutine.
func probeEngine(ps *pass, rec *recorder, phase int, f *plinius.Framework) error {
	const floats = 160 * 160 * 9
	buf := make([]float32, floats)
	for i := range buf {
		buf[i] = float32(i) * 1e-3
	}
	dst := make([]float32, floats)
	sc := f.Engine.AcquireScratch()
	defer f.Engine.ReleaseScratch(sc)
	var sealed []byte
	seal, err := timeCalls(rec, phase, "engine.SealFloatsWith", 100, func() error {
		var err error
		sealed, err = f.Engine.SealFloatsWith(sc, buf)
		return err
	})
	if err != nil {
		return err
	}
	sealed = append([]byte(nil), sealed...) // the scratch is reused by the open below
	open, err := timeCalls(rec, phase, "engine.OpenFloatsWith", 100, func() error {
		return f.Engine.OpenFloatsWith(sc, dst, sealed)
	})
	if err != nil {
		return err
	}
	gbps := func(medianMs float64) float64 { return 4 * floats / (medianMs * 1e6) }
	ps.emit("engine.seal_gbps", gbps(seal.median()), "GB/s", len(seal), baseWall+" probe, one goroutine")
	ps.emit("engine.open_gbps", gbps(open.median()), "GB/s", len(open), baseWall+" probe, one goroutine")
	return nil
}

// probeRomulus times an 8 MiB durable transaction, and recovery from a
// crash in the middle of one, on a scratch device.
func probeRomulus(ps *pass, rec *recorder, phase, n int) error {
	const txBytes = 8 << 20
	dev, err := pm.New(40<<20, pm.WithProfile(pm.RamdiskProfile()))
	if err != nil {
		return err
	}
	rom, err := romulus.Open(dev, romulus.WithEnv(romulus.SGXEnv()))
	if err != nil {
		return err
	}
	var off int
	err = rom.Update(func() error {
		off, err = rom.Alloc(txBytes)
		return err
	})
	if err != nil {
		return err
	}
	data := make([]byte, txBytes)
	virtual := func(name string, fn func() error) (series, error) {
		var out series
		for i := 0; i < n; i++ {
			data[0] = byte(i)
			mod := dev.Clock().Modeled()
			wall, err := timeCalls(rec, phase, name, 1, fn)
			if err != nil {
				return nil, err
			}
			out = append(out, wall[0]+ms(dev.Clock().Modeled()-mod))
		}
		return out, nil
	}
	tx, err := virtual("romulus.Update", func() error {
		return rom.Update(func() error { return rom.Store(off, data) })
	})
	if err != nil {
		return err
	}
	recover, err := virtual("romulus.Open", func() error {
		// Crash with the transaction open: recovery must copy the
		// back region over main.
		if err := rom.Begin(); err != nil {
			return err
		}
		if err := rom.Store(off, data); err != nil {
			return err
		}
		dev.Crash()
		rom, err = romulus.Open(dev, romulus.WithEnv(romulus.SGXEnv()))
		return err
	})
	if err != nil {
		return err
	}
	ps.emit("romulus.tx_ms_per_mb", tx.median()/mib(txBytes), "ms/MiB", len(tx), "wall + modeled PM, 8 MiB transaction on a scratch device")
	ps.emit("romulus.recover_ms_p50", recover.median(), "ms", len(recover), "wall + modeled PM, incl. the interrupted 8 MiB store")
	return nil
}

// probeSSD runs the paper's baseline, SSD checkpointing, on the same
// model: context for the mirror's save and restore times.
func (w *ckptLarge) probeSSD(ps *pass, rec *recorder, phase int) error {
	f := w.f
	virtual := func(name string, fn func() error) (series, error) {
		var out series
		for i := 0; i < 3; i++ {
			ssd := f.SSD.Clock().Modeled()
			vt := startVirtual(f)
			id := rec.begin(name, phase, i)
			err := fn()
			rec.end(id)
			if err != nil {
				return nil, err
			}
			out = append(out, vt.stop().virtual()+ms(f.SSD.Clock().Modeled()-ssd))
		}
		return out, nil
	}
	save, err := virtual("core.SSDSave", func() error { _, err := f.SSDSave("bench.ckpt"); return err })
	if err != nil {
		return err
	}
	restore, err := virtual("core.SSDRestore", func() error { _, err := f.SSDRestore("bench.ckpt"); return err })
	if err != nil {
		return err
	}
	base := "virtual incl. modeled SSD, sgx-emlPM profile"
	ps.emit("storage.ssd_save_ms", save.median(), "ms", len(save), base)
	ps.emit("storage.ssd_restore_ms", restore.median(), "ms", len(restore), base)
	ps.emit("core.save_vs_ssd_x", save.median()/ps.value("save_ms_p50"), "x", 0, "ssd_save_ms / save_ms_p50 (paper Table Ib: 3.2x on real PM)")
	ps.emit("core.restore_vs_ssd_x", restore.median()/ps.value("restore_ms_p50"), "x", 0, "ssd_restore_ms / restore_ms_p50 (paper Table Ib: 3.7x on real PM)")
	return nil
}

// probeOverKnee saves a model larger than the usable EPC three times
// and counts the page swaps each save pays.
func probeOverKnee(ps *pass, rec *recorder, phase int, seed int64) error {
	f, err := newSynthetic(overKneeBytes, 320<<20, seed)
	if err != nil {
		return err
	}
	if _, err := f.MirrorSave(); err != nil {
		return err
	}
	const saves = 3
	before := snapCounters()
	for i := 0; i < saves; i++ {
		id := rec.begin("core.MirrorSave(overknee)", phase, i)
		_, err := f.MirrorSave()
		rec.end(id)
		if err != nil {
			return err
		}
	}
	swaps := snapCounters().since(before, "epc_page_swaps_total") / saves
	ps.emit("enclave.page_swaps_per_save_overknee", swaps, "count", saves, baseExact+", 96 MiB model")
	return nil
}
