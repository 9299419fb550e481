package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/fleet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// Multi-host serving experiment: the fleet answer to a model that no
// single serving host can hold resident. The same over-EPC model is
// served three ways:
//
//   - monolithic: one whole-model replica on one host. The footprint
//     overcommits the host, so every batch pays page faults — the knee.
//   - sharded: a single-host core.ShardGroup pipeline. It stays under
//     the knee by parking shards and streaming their layer ranges back
//     from PM per scheduled batch — zero faults, but every batch pays
//     PM range restores.
//   - fleet: the shard plan bin-packed across N hosts by the placement
//     planner. Every shard is resident on its own host, so batches pay
//     neither faults nor steady-state restores; stage hand-offs cross
//     attested inter-host channels instead.
//
// The headline: the fleet serves the over-EPC model with zero paging
// faults AND zero steady-state PM restores, trading them for sealed
// activation hand-offs on the wire.

// FleetRow is one serving mode's measurement.
type FleetRow struct {
	// Mode is "monolithic", "sharded" or "fleet".
	Mode string `json:"mode"`
	// Hosts is the number of serving hosts the mode spans; Shards the
	// pipeline depth; Groups the replica-group count (fleet only);
	// Window the in-flight batch capacity.
	Hosts  int `json:"hosts"`
	Shards int `json:"shards"`
	Groups int `json:"groups"`
	Window int `json:"window"`
	// Streaming reports PM-streaming residency.
	Streaming bool `json:"streaming"`
	// PeakResidentBytes is the worst host's working-set high-water
	// mark; OverEPC whether any host exceeded its usable budget.
	PeakResidentBytes int  `json:"peak_resident_bytes"`
	OverEPC           bool `json:"over_epc"`
	// RestoreFaults is the page-fault cost of bringing the mode up;
	// ServeFaults the faults across the batch run, summed over hosts.
	RestoreFaults uint64 `json:"restore_faults"`
	ServeFaults   uint64 `json:"serve_faults"`
	// PMRestores counts layer-range restores from PM during the run.
	PMRestores uint64 `json:"pm_restores"`
	// Handoffs and HandoffBytes count sealed activation hand-offs
	// carried across attested inter-host channels (fleet only);
	// Channels is how many such channels the placement needed.
	Handoffs     uint64 `json:"handoffs"`
	HandoffBytes uint64 `json:"handoff_bytes"`
	Channels     int    `json:"channels"`
	// WallMs is the batch run's wall clock; Throughput its images/s.
	WallMs     float64 `json:"wall_ms"`
	Throughput float64 `json:"images_per_sec"`
}

// FleetResult holds one multi-host serving comparison, shaped for the
// BENCH_fleet.json snapshot.
type FleetResult struct {
	Server     string `json:"server"`
	ModelBytes int    `json:"model_bytes"`
	// HostEPC is each serving host's usable-EPC budget — smaller than
	// the model, so no single host can hold it resident.
	HostEPC    int        `json:"host_epc_bytes"`
	FleetHosts int        `json:"fleet_hosts"`
	Batch      int        `json:"batch"`
	Batches    int        `json:"batches"`
	Rows       []FleetRow `json:"rows"`
	// Speedup is fleet throughput over the single-host sharded
	// baseline's — the dividend of residency bought with more hosts.
	Speedup float64 `json:"fleet_speedup_vs_sharded_x"`
	// HostReports is the fleet's per-host placement and load view.
	HostReports []fleet.HostReport `json:"fleet_host_reports"`
	// Metrics is the flattened fabric registry at the end of the fleet
	// run (fleet_handoff_* counters, router depth, per-host headroom,
	// per-group shard series).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// RunFleet serves a sizeMB-parameter model — sized past any single
// host's usable EPC of epcMB — monolithically, sharded on one host, and
// across a numHosts fleet, and measures what each mode pays. epcMB <= 0
// uses the paper's 93.5 MB budget (pair it with sizeMB ~2x that);
// numHosts <= 0 uses 3.
func RunFleet(server core.ServerProfile, sizeMB, epcMB, numHosts, batches, batch int, seed int64) (FleetResult, error) {
	if sizeMB <= 0 {
		sizeMB = 187 // ~2x the usable EPC
	}
	epcBytes := enclave.UsableEPC
	if epcMB > 0 {
		epcBytes = epcMB << 20
	}
	if numHosts <= 0 {
		numHosts = 3
	}
	if batches <= 0 {
		batches = 4
	}
	if batch <= 0 {
		batch = 1
	}
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return FleetResult{}, err
	}
	f, err := core.New(core.Config{
		ModelConfig:        cfgText,
		Server:             server,
		PMBytes:            (sizeMB*5/2 + 48) << 20,
		Seed:               seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{
		Server:     server.Name,
		ModelBytes: f.Net.ParamBytes(),
		HostEPC:    epcBytes,
		FleetHosts: numHosts,
		Batch:      batch,
		Batches:    batches,
	}
	images := mnist.Synthetic(batch*batches, seed).Images
	in := f.Net.InputSize()

	// run drives the batch pipeline at full window and fills the shared
	// timing columns.
	run := func(row *FleetRow, window int, classify func(context.Context, []float32) ([]int, error)) error {
		sem := make(chan struct{}, window)
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			batchErr error
		)
		start := time.Now()
		for b := 0; b < batches; b++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(b int) {
				defer wg.Done()
				defer func() { <-sem }()
				_, err := classify(context.Background(), images[b*batch*in:(b+1)*batch*in])
				if err != nil {
					errMu.Lock()
					if batchErr == nil {
						batchErr = fmt.Errorf("%s batch %d: %w", row.Mode, b, err)
					}
					errMu.Unlock()
				}
			}(b)
		}
		wg.Wait()
		if batchErr != nil {
			return batchErr
		}
		wall := time.Since(start)
		row.WallMs = float64(wall.Microseconds()) / 1e3
		if secs := wall.Seconds(); secs > 0 {
			row.Throughput = float64(batch*batches) / secs
		}
		return nil
	}

	// Monolithic: one whole-model replica (a one-range group) on a
	// single over-committed host.
	monoHost := enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
	rep, err := f.NewShardGroup(core.ShardOptions{Shards: 1, Host: monoHost, Batch: batch, Seed: seed})
	if err != nil {
		return FleetResult{}, fmt.Errorf("monolithic replica: %w", err)
	}
	mono := FleetRow{Mode: "monolithic", Hosts: 1, Shards: 1, Groups: 1, Window: 1}
	mono.RestoreFaults = monoHost.Stats().PageSwaps
	if err := run(&mono, 1, func(_ context.Context, batchImages []float32) ([]int, error) {
		return rep.ClassifyBatch(batchImages)
	}); err != nil {
		return FleetResult{}, err
	}
	hs := monoHost.Stats()
	mono.ServeFaults = hs.PageSwaps - mono.RestoreFaults
	mono.PeakResidentBytes = hs.PeakResidentBytes
	mono.OverEPC = monoHost.OverEPC()
	if err := rep.Close(); err != nil {
		return FleetResult{}, err
	}
	res.Rows = append(res.Rows, mono)

	// Sharded: the single-host streaming baseline.
	shardHost := enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
	g, err := f.NewShardGroup(core.ShardOptions{
		Host:          shardHost,
		Batch:         batch,
		OverheadBytes: 64 << 10,
		Seed:          seed + 100,
	})
	if err != nil {
		return FleetResult{}, fmt.Errorf("shard group: %w", err)
	}
	shape := g.Report()
	sharded := FleetRow{
		Mode: "sharded", Hosts: 1, Shards: shape.Shards, Groups: 1,
		Window: g.Window(), Streaming: shape.Streaming,
	}
	sharded.RestoreFaults = shardHost.Stats().PageSwaps
	if err := run(&sharded, g.Window(), g.ClassifyBatchCtx); err != nil {
		return FleetResult{}, err
	}
	hs = shardHost.Stats()
	sharded.ServeFaults = hs.PageSwaps - sharded.RestoreFaults
	sharded.PeakResidentBytes = hs.PeakResidentBytes
	sharded.OverEPC = hs.PeakResidentBytes > epcBytes
	sharded.PMRestores = g.Report().ShardRestores
	if err := g.Close(); err != nil {
		return FleetResult{}, err
	}
	res.Rows = append(res.Rows, sharded)

	// Fleet: the shard plan bin-packed across numHosts identical hosts.
	hosts := make([]*enclave.Host, numHosts)
	for i := range hosts {
		hosts[i] = enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
	}
	reg := obs.NewRegistry()
	fl, err := fleet.New(f, fleet.Options{
		Hosts:         hosts,
		Batch:         batch,
		OverheadBytes: 64 << 10,
		Seed:          seed + 200,
		Metrics:       reg,
	})
	if err != nil {
		return FleetResult{}, fmt.Errorf("fleet: %w", err)
	}
	var buildFaults uint64
	for _, h := range hosts {
		buildFaults += h.Stats().PageSwaps
	}
	built := fl.Report()
	fleetRow := FleetRow{
		Mode: "fleet", Hosts: numHosts, Shards: built.Shards,
		Groups: built.FleetGroups, Window: fl.Window(),
		Streaming: built.Streaming, RestoreFaults: buildFaults,
	}
	if err := run(&fleetRow, fl.Window(), fl.ClassifyBatchCtx); err != nil {
		return FleetResult{}, err
	}
	var serveFaults uint64
	peak := 0
	overEPC := false
	for _, h := range hosts {
		st := h.Stats()
		serveFaults += st.PageSwaps
		if st.PeakResidentBytes > peak {
			peak = st.PeakResidentBytes
		}
		if h.OverEPC() {
			overEPC = true
		}
	}
	fleetRow.ServeFaults = serveFaults - buildFaults
	fleetRow.PeakResidentBytes = peak
	fleetRow.OverEPC = overEPC
	served := fl.Report()
	fleetRow.PMRestores = served.ShardRestores - built.ShardRestores
	fleetRow.Handoffs = served.FleetHandoffs
	fleetRow.HandoffBytes = served.FleetHandoffBytes
	fleetRow.Channels = fl.Channels()
	res.HostReports = fl.HostReports()
	res.Metrics = obs.Flatten(reg)
	if err := fl.Close(); err != nil {
		return FleetResult{}, err
	}
	res.Rows = append(res.Rows, fleetRow)

	if sharded.Throughput > 0 {
		res.Speedup = fleetRow.Throughput / sharded.Throughput
	}
	return res, nil
}

// Print renders the comparison.
func (r FleetResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-host serving — %s: %.0f MB model, %.1f MB hosts, fleet of %d (batch %d x %d)\n",
		r.Server, mbOf(r.ModelBytes), mbOf(r.HostEPC), r.FleetHosts, r.Batch, r.Batches)
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\thosts\tshards\tgroups\twindow\tpeak(MB)\trestore-faults\tserve-faults\tPM-restores\thandoffs\thandoff(KB)\twall(ms)\timg/s\tregime")
	for _, row := range r.Rows {
		regime := "resident"
		switch {
		case row.OverEPC:
			regime = "over knee"
		case row.Streaming:
			regime = "streams PM"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.0f\t%s\n",
			row.Mode, row.Hosts, row.Shards, row.Groups, row.Window,
			mbOf(row.PeakResidentBytes), row.RestoreFaults, row.ServeFaults,
			row.PMRestores, row.Handoffs, float64(row.HandoffBytes)/(1<<10),
			row.WallMs, row.Throughput, regime)
	}
	tw.Flush()
	if r.Speedup > 0 {
		fmt.Fprintf(w, "fleet throughput %.2fx the single-host sharded baseline\n", r.Speedup)
	}
	for _, hr := range r.HostReports {
		fmt.Fprintf(w, "host %d: resident %.1f MB / %.1f MB EPC (pressure %.2f), %d faults, shards %v\n",
			hr.Host, mbOf(hr.ResidentBytes), mbOf(hr.UsableEPC), hr.EPCPressure, hr.PageSwaps, hr.Shards)
	}
}
