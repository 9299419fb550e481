package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"plinius"
	"plinius/internal/darknet"
)

// serveReplica is the serve-replica workload: a trained small CNN
// served by two whole-model replicas, first by two closed-loop
// clients, then by an open-loop generator at a low and a high arrival
// rate. The serving layer (queue, batch window, ecall, allocations) is
// over half of a request's latency; restore and AES are bypassed after
// set-up.
type serveReplica struct {
	p   params
	f   *plinius.Framework
	srv *plinius.Server
	pool
}

const (
	replicaTrainIters = 8
	replicaPoolSize   = 512
	replicaClients    = 2 // closed loop; the box has 2 cores
	replicaClosedReqs = 1800
	replicaLoRate     = 150.0 // req/s
	replicaLoReqs     = 750
	replicaHiRate     = 450.0 // below the rate at which queueing amplifies this box's noise
	replicaHiReqs     = 4050
)

// pool is the request images of a serving workload with the class the
// framework itself assigns each, computed in set-up: every served
// prediction must equal it.
type pool struct {
	images [][]float32
	want   []int
}

func newPool(f *plinius.Framework, n int, seed int64) (pool, error) {
	ds := plinius.SyntheticDataset(n, seed)
	p := pool{images: make([][]float32, n), want: make([]int, n)}
	for i := range p.images {
		p.images[i] = ds.Image(i)
		cls, err := f.ClassifyBatch(p.images[i])
		if err != nil {
			return pool{}, fmt.Errorf("reference class of image %d: %w", i, err)
		}
		p.want[i] = cls[0]
	}
	return p, nil
}

func (w *serveReplica) setup(p params) error {
	w.p = p
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(2, 8, trainBatch),
		Seed:        p.seed,
	})
	if err != nil {
		return err
	}
	if err := f.LoadDataset(plinius.SyntheticDataset(1024, p.seed)); err != nil {
		return err
	}
	if err := f.Train(context.Background(), plinius.StopAt(replicaTrainIters)); err != nil {
		return err
	}
	if w.pool, err = newPool(f, replicaPoolSize, p.seed+1); err != nil {
		return err
	}
	srv, err := plinius.Serve(context.Background(), f, plinius.ServerOptions{Workers: 2, Seed: p.seed})
	if err != nil {
		return err
	}
	w.f, w.srv = f, srv
	// Warm-up: first requests grow the workers' buffers.
	warm := newTarget(srv, w.images, w.want, rand.New(rand.NewSource(p.seed)))
	for i := 0; i < 16; i++ {
		if !warm.request(i) {
			return fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return nil
}

func (w *serveReplica) close() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	w.srv, w.f = nil, nil
	return err
}

// servePhase runs one load phase against srv, counts its requests as
// output checks and reports the phase's counters: requests sent,
// succeeded and failed, mean micro-batch size, and per-request enclave
// and PM activity.
func servePhase(ps *pass, rec *recorder, root int, name string, srv *plinius.Server, run func(phase int) loadResult) loadResult {
	statsBefore, before, m0 := srv.Stats(), snapCounters(srv.Metrics()), mallocs()
	phase := rec.begin(name, root, 0)
	res := run(phase)
	rec.end(phase)
	m1, after, statsAfter := mallocs(), snapCounters(srv.Metrics()), srv.Stats()

	ps.count(res.sent, res.failed, "phase %s: %d of %d requests failed or were answered with the wrong class (%d refused by the in-flight cap)",
		name, res.failed, res.sent, res.overflow)
	ps.timings[name+"_ms"] = res.lat
	reqs := float64(res.sent)
	ps.emit(name+".sent", reqs, "count", 0, baseExact)
	ps.emit(name+".succeeded", float64(res.succeeded), "count", 0, baseExact)
	ps.emit(name+".failed", float64(res.failed), "count", 0, baseExact)
	if batches := statsAfter.Batches - statsBefore.Batches; batches > 0 {
		ps.emit("serve.avg_batch_"+strings.TrimPrefix(name, "open_"), float64(statsAfter.Requests-statsBefore.Requests)/float64(batches), "count", int(batches), "Server.Stats delta")
	}
	ps.emit(name+".allocs_per_req", float64(m1-m0)/reqs, "count", res.sent, "MemStats.Mallocs delta")
	ps.emit(name+".ecalls_per_req", after.since(before, "enclave_ecalls_total")/reqs, "count", 0, baseExact)
	ps.emit(name+".page_swaps_per_req", after.since(before, "epc_page_swaps_total")/reqs, "count", 0, baseExact)
	ps.emit(name+".pm_bytes_loaded_per_req", after.since(before, "pm_bytes_loaded_total")/reqs, "bytes", 0, baseExact)
	ps.emit(name+".rejected", float64(statsAfter.Rejected-statsBefore.Rejected), "count", 0, baseExact)
	ps.emit(name+".expired", float64(statsAfter.Expired-statsBefore.Expired), "count", 0, baseExact)
	if res.lateMaxMs > 0 {
		ps.emit(name+".gen_late_ms_max", res.lateMaxMs, "ms", res.sent, baseWall)
	}
	return res
}

// closedBase describes a closed-loop rate's time base.
func closedBase(clients int) string {
	return fmt.Sprintf("%s, %d closed-loop clients: clients / mean latency, lower quartile of %d segments", baseWall, clients, segments)
}

func (w *serveReplica) measure(ps *pass, rec *recorder, root int) error {
	rng := rand.New(rand.NewSource(w.p.seed + 2))
	tgt := newTarget(w.srv, w.images, w.want, rng)

	closed := servePhase(ps, rec, root, "closed", w.srv, func(phase int) loadResult {
		return closedLoop(rec, phase, tgt, replicaClients, w.p.ops(replicaClosedReqs))
	})
	ps.emit("closed_rps", closed.closedRate(replicaClients), "req/s", closed.succeeded, closedBase(replicaClients))

	loDue := arrivals(rng, replicaLoRate, w.p.ops(replicaLoReqs))
	servePhase(ps, rec, root, "open_lo", w.srv, func(phase int) loadResult {
		return openLoop(rec, phase, tgt, loDue)
	})
	hiDue := arrivals(rng, replicaHiRate, w.p.ops(replicaHiReqs))
	servePhase(ps, rec, root, "open_hi", w.srv, func(phase int) loadResult {
		return openLoop(rec, phase, tgt, hiDue)
	})
	return nil
}

func (w *serveReplica) summarize(ps *pass) {
	fromDue := baseWall + " from due time"
	ps.emitQuantile("open_lo_ms_p50", "open_lo_ms", 0.5, segments, fromDue+fmt.Sprintf(" @%g/s", replicaLoRate))
	ps.emitQuantile("open_hi_ms_p50", "open_hi_ms", 0.5, segments, fromDue+fmt.Sprintf(" @%g/s", replicaHiRate))
	ps.emitQuantile("open_hi_ms_p95", "open_hi_ms", 0.95, segments, fromDue+fmt.Sprintf(" @%g/s", replicaHiRate))
}

func (w *serveReplica) probe(ps *pass, rec *recorder, root int) error {
	phase := rec.begin("probes", root, 0)
	defer rec.end(phase)
	n := 100
	if w.p.quick {
		n = 3
	}
	// darknet alone: a plain parsed copy of the model, outside any
	// enclave, at batch 1 and batch 8.
	net, err := darknet.ParseConfig(strings.NewReader(w.f.ModelConfigText()), rand.New(rand.NewSource(w.p.seed)))
	if err != nil {
		return err
	}
	// core alone: a standalone replica restored from the publication.
	rep, err := w.f.NewReplica(w.p.seed + 99)
	if err != nil {
		return err
	}
	defer func() { _ = rep.Close() }() // probe-only replica; its numbers are already taken
	in := net.InputSize()
	batch8 := make([]float32, 0, 8*in)
	for i := 0; i < 8; i++ {
		batch8 = append(batch8, w.images[i]...)
	}
	for _, b := range []int{1, 8} {
		x := batch8[:b*in]
		fwd, err := timeCalls(rec, phase, fmt.Sprintf("darknet.ClassifyBatch(b%d)", b), n, func() error {
			_, err := net.ClassifyBatch(x, b)
			return err
		})
		if err != nil {
			return err
		}
		repl, err := timeCalls(rec, phase, fmt.Sprintf("core.Replica.ClassifyBatchCtx(b%d)", b), n, func() error {
			_, err := rep.ClassifyBatchCtx(context.Background(), x)
			return err
		})
		if err != nil {
			return err
		}
		ps.emit(fmt.Sprintf("darknet.forward_ms_b%d", b), fwd.median(), "ms", len(fwd), baseWall+" probe")
		ps.emit(fmt.Sprintf("core.replica_batch_ms_b%d", b), repl.median(), "ms", len(repl), baseWall+" probe")
	}

	ps.emit("serve.overhead_ms_p50", ps.value("open_lo_ms_p50")-ps.value("core.replica_batch_ms_b1"), "ms", 0, "open_lo_ms_p50 - core.replica_batch_ms_b1")
	ps.emit("serve.allocs_per_req", ps.value("closed.allocs_per_req"), "count", ps.entries["closed.allocs_per_req"].n, "MemStats.Mallocs delta, closed phase")
	lo, hi := ps.timings["open_lo_ms"], ps.timings["open_hi_ms"]
	ps.emit("serve.ms_p99_lo", lo.quantile(0.99), "ms", len(lo), baseWall+" from due time; diagnostic, does not repeat")
	ps.emit("serve.ms_p99_hi", hi.quantile(0.99), "ms", len(hi), baseWall+" from due time; diagnostic, does not repeat")
	q := supportedQuantile(len(hi))
	ps.emit("serve.ms_pmax_supported_hi", hi.quantile(q), "ms", len(hi), fmt.Sprintf("p%.3f, the highest percentile with %d samples beyond it", q*100, minBeyond))
	ps.emit("serve.gen_late_ms_max", max(ps.value("open_lo.gen_late_ms_max"), ps.value("open_hi.gen_late_ms_max")), "ms", 0, baseWall)
	ps.emit("serve.rejected", ps.value("closed.rejected")+ps.value("open_lo.rejected")+ps.value("open_hi.rejected"), "count", 0, baseExact)
	ps.emit("serve.expired", ps.value("closed.expired")+ps.value("open_lo.expired")+ps.value("open_hi.expired"), "count", 0, baseExact)
	ps.emit("enclave.ecalls_per_req", ps.value("closed.ecalls_per_req"), "count", 0, baseExact+", closed phase")
	ps.emit("enclave.page_swaps_per_req", ps.value("closed.page_swaps_per_req"), "count", 0, baseExact+", closed phase")
	ps.emit("enclave.peak_resident_mb", mib(w.f.Host.Stats().PeakResidentBytes), "MiB", 0, "Host.Stats high-water mark")
	return nil
}
