package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"time"

	"plinius/internal/chaos"
	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/fleet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// Chaos experiment: kill a fleet host mid-load and measure what the
// failure-domain layer actually delivers. A model sized past any one
// host's EPC is served across numHosts hosts; a sustained stream of
// micro-batches runs at full window; at one third of the stream the
// host holding shard 0 is killed, at two thirds it rejoins. The claims
// under test:
//
//   - zero accepted requests are dropped — batches in flight on the
//     dead host are re-routed and retried on survivors (sealed
//     per-batch hand-offs make the retry idempotent);
//   - the fleet detects the death, evicts every group touching the
//     host, and replans on the survivors' headroom — resident when it
//     fits, degraded streaming when it does not;
//   - when the host rejoins, the fleet promotes back to the original
//     resident placement (the planner is deterministic).
//
// Channel faults run throughout (a periodic injected drop), so the
// hand-off retry/backoff path is exercised on every phase, not just
// during the outage.

// ChaosResult holds one chaos run, shaped for BENCH_chaos.json.
type ChaosResult struct {
	Server     string `json:"server"`
	ModelBytes int    `json:"model_bytes"`
	HostEPC    int    `json:"host_epc_bytes"`
	FleetHosts int    `json:"fleet_hosts"`
	Batch      int    `json:"batch"`
	Batches    int    `json:"batches"`

	// KilledHost is the fleet index of the victim; KillAtBatch and
	// RejoinAtBatch the submission indices where the kill and rejoin
	// were scripted.
	KilledHost    int `json:"killed_host"`
	KillAtBatch   int `json:"kill_at_batch"`
	RejoinAtBatch int `json:"rejoin_at_batch"`

	// AcceptedRequests counts every request submitted; DroppedRequests
	// the ones that failed — the headline claim is that this is zero.
	AcceptedRequests int `json:"accepted_requests"`
	DroppedRequests  int `json:"dropped_requests"`

	// RecoveryMs is the wall time from the kill to the first completed
	// batch that was submitted after it — detection, eviction, replan
	// and the batch itself.
	RecoveryMs float64 `json:"recovery_ms"`

	// HostsDownPeak, Replans, EvictedGroups and HandoffRetries are the
	// recovery counters at the end of the run.
	HostsDownPeak  int    `json:"hosts_down_peak"`
	Replans        uint64 `json:"replans"`
	EvictedGroups  uint64 `json:"evicted_groups"`
	HandoffRetries uint64 `json:"handoff_retries"`

	// DegradedDuring reports whether the fleet served degraded
	// (streaming on survivors) during the outage; ResidentAfterRejoin
	// whether the rejoin promoted it back to full residency; and
	// PlacementRestored whether the promoted placement equals the
	// original one.
	DegradedDuring      bool `json:"degraded_during"`
	ResidentAfterRejoin bool `json:"resident_after_rejoin"`
	PlacementRestored   bool `json:"placement_restored"`

	// Phase P95 latencies: before the kill, between kill and rejoin,
	// and after the rejoin.
	P95BeforeMs float64 `json:"p95_before_ms"`
	P95DuringMs float64 `json:"p95_during_ms"`
	P95AfterMs  float64 `json:"p95_after_ms"`

	// Metrics is the flattened fleet registry at the end of the run.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// RunChaos serves a sizeMB-parameter model across a numHosts fleet of
// epcMB hosts, kills one placed host under sustained load, rejoins it,
// and measures drops, recovery time and per-phase P95. epcMB <= 0 uses
// the paper's 93.5 MB budget; numHosts <= 0 uses 3. The host budget
// should be chosen so the survivors cannot hold the model resident —
// that is what pushes the fleet onto the degraded-streaming rung.
func RunChaos(server core.ServerProfile, sizeMB, epcMB, numHosts, batches, batch int, seed int64) (ChaosResult, error) {
	if sizeMB <= 0 {
		sizeMB = 187 // ~2x the usable EPC: three hosts hold it, two do not
	}
	epcBytes := enclave.UsableEPC
	if epcMB > 0 {
		epcBytes = epcMB << 20
	}
	if numHosts <= 0 {
		numHosts = 3
	}
	if batches <= 0 {
		batches = 24
	}
	if batch <= 0 {
		batch = 1
	}
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return ChaosResult{}, err
	}
	f, err := core.New(core.Config{
		ModelConfig:        cfgText,
		Server:             server,
		PMBytes:            (sizeMB*5/2 + 48) << 20,
		Seed:               seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	hosts := make([]*enclave.Host, numHosts)
	for i := range hosts {
		hosts[i] = enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
	}
	reg := obs.NewRegistry()
	fl, err := fleet.New(f, fleet.Options{
		Hosts:            hosts,
		Batch:            batch,
		OverheadBytes:    64 << 10,
		Seed:             seed + 200,
		ChannelLatency:   50 * time.Microsecond,
		HandoffDeadline:  10 * time.Millisecond,
		DispatchDeadline: 30 * time.Second,
		// A periodic injected drop on every inter-host channel keeps the
		// retry/backoff path hot through all three phases.
		ChannelFaults: func(fromHost, toHost int) *chaos.Injector {
			return chaos.DropEvery(7)
		},
		Metrics: reg,
	})
	if err != nil {
		return ChaosResult{}, fmt.Errorf("chaos fleet: %w", err)
	}
	defer fl.Close()

	original := fl.Placement()
	victimIdx := original.Groups[0][0]
	victim := hosts[victimIdx]

	killAt := batches / 3
	rejoinAt := 2 * batches / 3
	if killAt < 1 {
		killAt = 1
	}
	if rejoinAt <= killAt {
		rejoinAt = killAt + 1
	}

	res := ChaosResult{
		Server:           server.Name,
		ModelBytes:       f.Net.ParamBytes(),
		HostEPC:          epcBytes,
		FleetHosts:       numHosts,
		Batch:            batch,
		Batches:          batches,
		KilledHost:       victimIdx,
		KillAtBatch:      killAt,
		RejoinAtBatch:    rejoinAt,
		AcceptedRequests: batches * batch,
	}

	images := mnist.Synthetic(batch*batches, seed).Images
	in := f.Net.InputSize()

	type sample struct {
		phase int // 0 before, 1 during, 2 after
		ms    float64
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		samples   []sample
		dropped   int
		killWall  time.Time
		recovered time.Duration // kill -> first post-kill submission completing
	)
	window := fl.Window()
	if window < 1 {
		window = 1
	}
	sem := make(chan struct{}, window)
	for b := 0; b < batches; b++ {
		if b == killAt {
			// Let the in-flight window keep running — the kill must land
			// under live traffic — and murder the victim between two
			// submissions so the scripted index is exact.
			mu.Lock()
			killWall = time.Now()
			mu.Unlock()
			victim.Kill()
		}
		if b == rejoinAt {
			// Drain the in-flight window so the outage-phase recovery
			// has definitely run, sample the degraded state while the
			// outage is still on, then bring the host back and promote.
			for i := 0; i < window; i++ {
				sem <- struct{}{}
			}
			outage := fl.Report()
			res.DegradedDuring = outage.FleetDegraded
			res.HostsDownPeak = outage.FleetHostsDown
			victim.Rejoin()
			err := fl.Rejoin()
			for i := 0; i < window; i++ {
				<-sem
			}
			if err != nil {
				return res, fmt.Errorf("rejoin: %w", err)
			}
		}
		phase := 0
		switch {
		case b >= rejoinAt:
			phase = 2
		case b >= killAt:
			phase = 1
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(b, phase int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			_, err := fl.ClassifyBatchCtx(context.Background(), images[b*batch*in:(b+1)*batch*in])
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				dropped += batch
				return
			}
			samples = append(samples, sample{phase: phase, ms: float64(elapsed.Microseconds()) / 1e3})
			if phase >= 1 && !killWall.IsZero() && recovered == 0 {
				recovered = time.Since(killWall)
			}
		}(b, phase)
	}
	wg.Wait()

	res.DroppedRequests = dropped
	res.RecoveryMs = float64(recovered.Microseconds()) / 1e3
	rep := fl.Report()
	res.Replans = rep.FleetReplans
	res.EvictedGroups = rep.FleetEvictedGroups
	res.HandoffRetries = rep.FleetHandoffRetries
	res.ResidentAfterRejoin = !rep.FleetDegraded && !rep.Streaming
	res.PlacementRestored = placementsEqual(original, fl.Placement())
	res.Metrics = obs.Flatten(reg)

	p95 := func(phase int) float64 {
		var ms []float64
		for _, s := range samples {
			if s.phase == phase {
				ms = append(ms, s.ms)
			}
		}
		if len(ms) == 0 {
			return 0
		}
		sort.Float64s(ms)
		idx := (len(ms)*95 + 99) / 100
		if idx > 0 {
			idx--
		}
		return ms[idx]
	}
	res.P95BeforeMs = p95(0)
	res.P95DuringMs = p95(1)
	res.P95AfterMs = p95(2)
	return res, nil
}

// placementsEqual compares the shard plan and every group's host
// assignment.
func placementsEqual(a, b fleet.Placement) bool {
	return reflect.DeepEqual(a.Plan, b.Plan) && reflect.DeepEqual(a.Groups, b.Groups)
}

// Print renders the chaos run.
func (r ChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chaos — %s: %.0f MB model on %d x %.1f MB hosts, kill host %d at batch %d, rejoin at %d\n",
		r.Server, mbOf(r.ModelBytes), r.FleetHosts, mbOf(r.HostEPC), r.KilledHost, r.KillAtBatch, r.RejoinAtBatch)
	fmt.Fprintf(w, "requests: %d accepted, %d dropped\n", r.AcceptedRequests, r.DroppedRequests)
	fmt.Fprintf(w, "recovery: %.1f ms (detection -> replan -> first batch on survivors)\n", r.RecoveryMs)
	fmt.Fprintf(w, "replans %d, evicted groups %d, hand-off retries %d, hosts down at peak %d\n",
		r.Replans, r.EvictedGroups, r.HandoffRetries, r.HostsDownPeak)
	mode := "resident on survivors"
	if r.DegradedDuring {
		mode = "degraded (streaming on survivors)"
	}
	fmt.Fprintf(w, "during outage: %s\n", mode)
	fmt.Fprintf(w, "after rejoin: resident=%v, original placement restored=%v\n",
		r.ResidentAfterRejoin, r.PlacementRestored)
	fmt.Fprintf(w, "P95 latency: before %.2f ms, during %.2f ms, after %.2f ms\n",
		r.P95BeforeMs, r.P95DuringMs, r.P95AfterMs)
}
