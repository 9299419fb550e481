package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"plinius"
)

// serveOverEPC is the serve-overepc workload: one MLP too large for
// its serving host's EPC, served two ways from the same framework.
// Phase stream shards it on the 36 MiB host and streams parked layer
// ranges back from the pinned publication, so mirror range restores,
// AES opens and the prefetcher are on the request path. Phase fleet
// places the same shard plan on three extra hosts where every shard
// stays resident, so restores vanish and sealed activation hand-offs
// take their place.
type serveOverEPC struct {
	p    params
	f    *plinius.Framework
	host *plinius.Host
	pool
}

const (
	overEPCHost      = 36 << 20
	overEPCFleetHost = 10 << 20
	overEPCFleetSize = 3
	overEPCBatch     = 8
	overEPCClients   = 2
	overEPCPoolSize  = 128
	streamReqs       = 500 // per client, at the 20 s reference: ~14 s
	fleetReqs        = 700 // per client: ~6 s
)

// mlpConfig is a 6x1024-wide fully connected network: 23.1 MiB of
// parameters, ~12 MFLOP per sample.
func mlpConfig(width, layers int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[net]\nbatch=%d\nlearning_rate=0.1\nchannels=1\nheight=28\nwidth=28\n\n", overEPCBatch)
	for i := 0; i < layers; i++ {
		fmt.Fprintf(&sb, "[connected]\noutput=%d\nactivation=leaky\n\n", width)
	}
	sb.WriteString("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n")
	return sb.String()
}

func (w *serveOverEPC) setup(p params) error {
	w.p = p
	profile := plinius.SGXEmlPM()
	w.host = plinius.NewHost(profile, plinius.WithHostEPC(overEPCHost))
	f, err := plinius.New(plinius.Config{
		ModelConfig:        mlpConfig(1024, 6),
		Host:               w.host,
		Seed:               p.seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return err
	}
	// The first publication makes the dataset-less framework servable
	// and is the snapshot both phases restore from.
	if _, err := f.Publish(); err != nil {
		return err
	}
	if w.pool, err = newPool(f, overEPCPoolSize, p.seed+1); err != nil {
		return err
	}
	w.f = f
	return nil
}

func (w *serveOverEPC) close() error {
	w.f = nil
	return nil
}

func (w *serveOverEPC) options(traced bool, requests int) plinius.ServerOptions {
	opts := plinius.ServerOptions{
		MaxBatch:           overEPCBatch,
		ShardOverheadBytes: 64 << 10,
		Seed:               w.p.seed,
	}
	if traced {
		// Retain every request's stage spans, not only the slowest 16.
		opts.TraceKeep = requests
	}
	return opts
}

func (w *serveOverEPC) measure(ps *pass, rec *recorder, root int) error {
	rng := rand.New(rand.NewSource(w.p.seed + 2))
	ctx := context.Background()

	// Phase stream.
	perClient := w.p.ops(streamReqs)
	opts := w.options(rec != nil, overEPCClients*perClient)
	opts.Shards = plinius.ShardAuto
	srv, err := plinius.Serve(ctx, w.f, opts)
	if err != nil {
		return fmt.Errorf("stream server: %w", err)
	}
	ps.check(srv.ShardsStreaming(), "stream: the shard group is fully resident on the %d MiB host; nothing streams", overEPCHost>>20)
	hostBefore := w.host.Stats()
	res := servePhase(ps, rec, root, "stream", srv, func(phase int) loadResult {
		return closedLoop(rec, phase, newTarget(srv, w.images, w.want, rng), overEPCClients, perClient)
	})
	st := srv.Stats()
	if rec != nil {
		stageSpans(ps, srv, "stream")
	}
	shards := srv.Shards()
	if err := srv.Close(); err != nil {
		return fmt.Errorf("stream close: %w", err)
	}
	hostAfter := w.host.Stats()
	ps.emit("stream_rps", res.closedRate(overEPCClients), "req/s", res.succeeded, closedBase(overEPCClients))
	ps.check(hostAfter.PageSwaps == hostBefore.PageSwaps, "stream: %d page swaps on the serving host, want 0", hostAfter.PageSwaps-hostBefore.PageSwaps)
	ps.check(hostAfter.PeakResidentBytes <= overEPCHost, "stream: peak resident %d bytes exceeds the %d-byte EPC", hostAfter.PeakResidentBytes, overEPCHost)
	if batches := float64(st.Batches); batches > 0 {
		ps.emit("core.shard_restores_per_batch", float64(st.ShardRestores)/batches, "count", int(st.Batches), "Server.Stats")
		ps.emit("core.shard_stalls_per_batch", float64(st.ShardStalls)/batches, "count", int(st.Batches), "Server.Stats")
	}
	if st.ShardRestores > 0 {
		ps.emit("core.shard_prefetched_share", float64(st.ShardPrefetched)/float64(st.ShardRestores), "ratio", int(st.ShardRestores), "Server.Stats")
	}
	ps.emit("stream.shards", float64(shards), "count", 0, baseExact)
	ps.emit("stream.peak_resident_mb", mib(hostAfter.PeakResidentBytes), "MiB", 0, "Host.Stats high-water mark")

	// Phase fleet.
	perClient = w.p.ops(fleetReqs)
	opts = w.options(rec != nil, overEPCClients*perClient)
	profile := plinius.SGXEmlPM()
	for i := 0; i < overEPCFleetSize; i++ {
		opts.Fleet = append(opts.Fleet, plinius.NewHost(profile, plinius.WithHostEPC(overEPCFleetHost)))
	}
	srv, err = plinius.Serve(ctx, w.f, opts)
	if err != nil {
		return fmt.Errorf("fleet server: %w", err)
	}
	built := srv.Stats()
	var swapsBefore uint64
	for _, h := range opts.Fleet {
		swapsBefore += h.Stats().PageSwaps
	}
	fleetBefore := snapCounters(srv.Metrics())
	res = servePhase(ps, rec, root, "fleet", srv, func(phase int) loadResult {
		return closedLoop(rec, phase, newTarget(srv, w.images, w.want, rng), overEPCClients, perClient)
	})
	st = srv.Stats()
	fleetAfter := snapCounters(srv.Metrics())
	if rec != nil {
		stageSpans(ps, srv, "fleet")
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("fleet close: %w", err)
	}
	ps.emit("fleet_rps", res.closedRate(overEPCClients), "req/s", res.succeeded, closedBase(overEPCClients))
	steady := st.ShardRestores - built.ShardRestores
	ps.check(steady == 0, "fleet: %d steady-state restores, want 0", steady)
	var swaps uint64
	peak := 0
	for i, h := range opts.Fleet {
		hs := h.Stats()
		swaps += hs.PageSwaps
		peak = max(peak, hs.PeakResidentBytes)
		ps.check(hs.PeakResidentBytes <= overEPCFleetHost, "fleet: host %d peak resident %d bytes exceeds its %d-byte EPC", i, hs.PeakResidentBytes, overEPCFleetHost)
	}
	ps.check(swaps == swapsBefore, "fleet: %d page swaps across the fleet hosts, want 0", swaps-swapsBefore)
	ps.emit("fleet.steady_restores", float64(steady), "count", 0, baseExact)
	ps.emit("fleet.groups", float64(st.FleetGroups), "count", 0, baseExact)
	ps.emit("fleet.peak_resident_mb", mib(peak), "MiB", 0, "Host.Stats high-water mark, worst fleet host")
	if batches := float64(st.Batches - built.Batches); batches > 0 {
		ps.emit("fleet.handoffs_per_batch", float64(st.FleetHandoffs-built.FleetHandoffs)/batches, "count", int(batches), "Server.Stats delta")
		ps.emit("fleet.handoff_bytes_per_batch", float64(st.FleetHandoffBytes-built.FleetHandoffBytes)/batches, "bytes", int(batches), "Server.Stats delta")
		ps.emit("fleet.handoff_modeled_ms_per_batch", 1000*fleetAfter.since(fleetBefore, "fleet_handoff_seconds_total")/batches, "ms", int(batches), baseModeled+" wire time")
	}
	return nil
}

// stageSpans reads the per-stage spans the program already exposes on
// its retained request traces and files them by stage kind, e.g.
// "stream.restore" for every restore/<shard> span.
func stageSpans(ps *pass, srv *plinius.Server, phase string) {
	for _, tr := range srv.SlowTraces() {
		for _, sp := range tr.Spans {
			kind, _, _ := strings.Cut(sp.Stage, "/")
			ps.observe(phase+"."+kind, ms(sp.Dur))
		}
	}
}

func (w *serveOverEPC) summarize(ps *pass) {
	ps.emitQuantile("stream_ms_p50", "stream_ms", 0.5, segments, baseWall)
	ps.emitQuantile("stream_ms_p95", "stream_ms", 0.95, segments, baseWall)
	ps.emitQuantile("fleet_ms_p50", "fleet_ms", 0.5, segments, baseWall)
	ps.emitQuantile("fleet_ms_p95", "fleet_ms", 0.95, segments, baseWall)
}

func (w *serveOverEPC) probe(ps *pass, _ *recorder, _ int) error {
	// This workload's layer numbers come from the stage spans the
	// shard pipeline records on every traced request and from counter
	// deltas taken during the traced pass; it needs no isolated calls.
	stage := func(name, timing string) {
		s := ps.timings[timing]
		ps.emit(name, s.median(), "ms", len(s), baseWall+", stage spans of traced requests")
	}
	stage("mirror.range_restore_ms_p50", "stream.restore")
	stage("mirror.range_open_ms_p50", "stream.open")
	stage("fleet.stage_seal_ms_p50", "fleet.seal")
	ps.emit("core.stream_ms_p50", ps.value("stream_ms_p50"), "ms", ps.entries["stream_ms_p50"].n, baseWall)
	ps.emit("fleet.ms_p50", ps.value("fleet_ms_p50"), "ms", ps.entries["fleet_ms_p50"].n, baseWall)
	ps.emit("pm.bytes_loaded_per_req", ps.value("stream.pm_bytes_loaded_per_req"), "bytes", 0, baseExact+", stream phase")
	ps.emit("enclave.ecalls_per_req", ps.value("stream.ecalls_per_req"), "count", 0, baseExact+", stream phase")
	ps.emit("enclave.page_swaps_per_req", ps.value("stream.page_swaps_per_req")+ps.value("fleet.page_swaps_per_req"), "count", 0, baseExact+", both phases; must stay 0")
	ps.emit("enclave.peak_resident_mb", ps.value("stream.peak_resident_mb"), "MiB", 0, "serving host high-water mark; must stay within 36 MiB")
	return nil
}
