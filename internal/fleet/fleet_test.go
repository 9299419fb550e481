package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
)

// newOverEPCFramework builds a framework around a synthetic model whose
// replica footprint exceeds hostEPC — the regime where no single fleet
// host can serve it whole.
func newOverEPCFramework(t *testing.T, modelBytes int, seed int64) *core.Framework {
	t.Helper()
	cfgText, err := core.SyntheticModelConfig(modelBytes)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	f, err := core.New(core.Config{
		ModelConfig:        cfgText,
		PMBytes:            64 << 20,
		Seed:               seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("New framework: %v", err)
	}
	return f
}

// newFleetHosts builds n identical serving hosts with the given EPC.
func newFleetHosts(f *core.Framework, n, epcBytes int) []*enclave.Host {
	hosts := make([]*enclave.Host, n)
	for i := range hosts {
		hosts[i] = enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(epcBytes))
	}
	return hosts
}

// TestFleetServesOverEPCModelZeroFaults is the tentpole acceptance
// check: a model whose footprint exceeds any single host's usable EPC
// serves across a 3-host fleet fully resident — zero paging faults on
// every host — with predictions identical to the sequential enclave
// model, and with sealed activations crossing inter-host channels.
func TestFleetServesOverEPCModelZeroFaults(t *testing.T) {
	const (
		hostEPC = 5 << 20
		batch   = 1
		batches = 4
	)
	f := newOverEPCFramework(t, 6<<20, 11)
	if f.ReplicaFootprint(batch) <= hostEPC {
		t.Fatalf("replica footprint %d fits a %d-byte host; test needs the over-EPC regime",
			f.ReplicaFootprint(batch), hostEPC)
	}
	hosts := newFleetHosts(f, 3, hostEPC)
	fl, err := New(f, Options{
		Hosts:         hosts,
		Batch:         batch,
		OverheadBytes: 64 << 10,
		Seed:          12,
	})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()

	if fl.Report().Streaming {
		t.Fatalf("fleet streams with aggregate capacity %d for a %d-byte model; want resident",
			3*hostEPC, f.ReplicaFootprint(batch))
	}
	if fl.Report().Shards < 2 {
		t.Fatalf("Shards = %d, want a real split", fl.Report().Shards)
	}
	if fl.Channels() == 0 {
		t.Fatal("no inter-host channels although the model cannot fit one host")
	}

	setupFaults := make([]uint64, len(hosts))
	for i, h := range hosts {
		setupFaults[i] = h.Stats().PageSwaps
	}
	setupRestores := fl.Report().ShardRestores
	ds := mnist.Synthetic(batch*batches, 11)
	in := fl.InputSize()
	for b := 0; b < batches; b++ {
		images := ds.Images[b*batch*in : (b+1)*batch*in]
		got, err := fl.ClassifyBatch(images)
		if err != nil {
			t.Fatalf("ClassifyBatch %d: %v", b, err)
		}
		for i, cls := range got {
			want, err := f.Classify(ds.Image(b*batch + i))
			if err != nil {
				t.Fatalf("sequential classify: %v", err)
			}
			if cls != want {
				t.Fatalf("batch %d image %d: class %d, want %d", b, i, cls, want)
			}
		}
	}
	for i, h := range hosts {
		if faults := h.Stats().PageSwaps - setupFaults[i]; faults != 0 {
			t.Fatalf("host %d paid %d paging faults serving; want 0", i, faults)
		}
		if h.OverEPC() {
			t.Fatalf("host %d overcommitted: resident %d of %d", i, h.Resident(), h.UsableEPC())
		}
	}
	// Resident means no stage re-restores its range from PM per batch.
	if restores := fl.Report().ShardRestores - setupRestores; restores != 0 {
		t.Fatalf("fleet paid %d PM range restores serving; want 0 (resident)", restores)
	}
	// One host report per host, and one placed range per (group, stage).
	reports := fl.HostReports()
	if len(reports) != len(hosts) {
		t.Fatalf("%d host reports, want %d", len(reports), len(hosts))
	}
	placed := 0
	for _, hr := range reports {
		placed += len(hr.Shards)
	}
	if r := fl.Report(); placed != r.FleetGroups*r.Shards {
		t.Fatalf("host reports place %d ranges, want %d groups x %d shards", placed, r.FleetGroups, r.Shards)
	}
	if fl.Report().FleetHandoffs == 0 || fl.Report().FleetHandoffBytes == 0 {
		t.Fatalf("hand-off accounting empty (%d transfers, %d bytes) although stages span hosts",
			fl.Report().FleetHandoffs, fl.Report().FleetHandoffBytes)
	}

	// The fabric series are registered and live, the recovery families
	// included (at zero on a healthy fleet).
	flat := map[string]bool{}
	for _, fam := range fl.Metrics().Snapshot() {
		flat[fam.Name] = true
	}
	for _, name := range []string{
		"fleet_handoff_bytes_total", "fleet_handoff_seconds_total",
		"fleet_router_queue_depth", "fleet_host_headroom_bytes",
		"fleet_host_down_total", "fleet_replans_total",
		"fleet_handoff_retries_total", "fleet_evicted_groups_total",
		"fleet_degraded",
	} {
		if !flat[name] {
			t.Fatalf("metric family %q not registered", name)
		}
	}
}

// TestFleetRefreshAndRotate: Refresh flips every replica group
// together, to a new version and, after Framework.RotateKey, to the
// new key, and serving continues bit-identical to the framework
// afterwards.
func TestFleetRefreshAndRotate(t *testing.T) {
	f := newOverEPCFramework(t, 4<<20, 21)
	hosts := newFleetHosts(f, 3, 4<<20)
	fl, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 22})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()

	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	v0 := fl.Version()
	if _, err := fl.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if fl.Version() <= v0 {
		t.Fatalf("Version %d after Refresh, want > %d", fl.Version(), v0)
	}
	if _, err := f.RotateKey(); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := fl.Refresh(); err != nil {
		t.Fatalf("Refresh after RotateKey: %v", err)
	}
	ds := mnist.Synthetic(1, 21)
	got, err := fl.ClassifyBatch(ds.Images)
	if err != nil {
		t.Fatalf("ClassifyBatch after rotate: %v", err)
	}
	for i, cls := range got {
		want, err := f.Classify(ds.Image(i))
		if err != nil {
			t.Fatalf("sequential classify: %v", err)
		}
		if cls != want {
			t.Fatalf("after rotate image %d: class %d, want %d", i, cls, want)
		}
	}
}

// TestFleetControlDropsNoRequests hammers the fleet with concurrent
// batches while Refresh flips it mid-traffic, before and after a key
// rotation: every request
// must succeed — the control path drains, flips, and resumes without
// dropping a single one. Run under -race this also exercises the
// intake/control lock discipline.
func TestFleetControlDropsNoRequests(t *testing.T) {
	f := newOverEPCFramework(t, 2<<20, 31)
	hosts := newFleetHosts(f, 3, 2<<20)
	fl, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 32})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()

	const clients = 4
	const perClient = 4
	ds := mnist.Synthetic(1, 31)
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := fl.ClassifyBatch(ds.Images); err != nil {
					errCh <- fmt.Errorf("classify: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := f.Publish(); err != nil {
			errCh <- fmt.Errorf("publish: %w", err)
			return
		}
		if _, err := fl.Refresh(); err != nil {
			errCh <- fmt.Errorf("refresh: %w", err)
			return
		}
		if _, err := f.RotateKey(); err != nil {
			errCh <- fmt.Errorf("rotate key: %w", err)
			return
		}
		if _, err := fl.Refresh(); err != nil {
			errCh <- fmt.Errorf("refresh after rotate key: %w", err)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("request dropped during control ops: %v", err)
	}
	if fl.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", fl.InFlight())
	}
}

// TestFleetRestoresPersistedPlacement: a fleet re-created over the
// same PM restores the recorded plan and host assignment instead of
// replanning.
func TestFleetRestoresPersistedPlacement(t *testing.T) {
	f := newOverEPCFramework(t, 4<<20, 41)
	hosts := newFleetHosts(f, 3, 4<<20)
	fl1, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 42})
	if err != nil {
		t.Fatalf("first fleet: %v", err)
	}
	want := fl1.Placement()
	if err := fl1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fl2, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 43})
	if err != nil {
		t.Fatalf("second fleet: %v", err)
	}
	defer fl2.Close()
	got := fl2.Placement()
	if len(got.Plan) != len(want.Plan) {
		t.Fatalf("recreated plan has %d shards, recorded %d", len(got.Plan), len(want.Plan))
	}
	for i := range want.Plan {
		if got.Plan[i] != want.Plan[i] {
			t.Fatalf("plan[%d] = %v, recorded %v", i, got.Plan[i], want.Plan[i])
		}
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("recreated %d groups, recorded %d", len(got.Groups), len(want.Groups))
	}
	for g := range want.Groups {
		for s := range want.Groups[g] {
			if got.Groups[g][s] != want.Groups[g][s] {
				t.Fatalf("group %d shard %d on host %d, recorded %d",
					g, s, got.Groups[g][s], want.Groups[g][s])
			}
		}
	}
}

// TestFleetInfeasibleTyped: a fleet none of whose hosts can hold even
// the parked shard overhead reports ErrInfeasible, the error the
// serving front end maps to its distinct 503 body.
func TestFleetInfeasibleTyped(t *testing.T) {
	f := newOverEPCFramework(t, 2<<20, 51)
	hosts := newFleetHosts(f, 2, 32<<10)
	_, err := New(f, Options{Hosts: hosts, OverheadBytes: 64 << 10, Seed: 52})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestFleetRouterSpreadsLoad: with replica groups placed — auto
// packing puts one on each of two roomy hosts — concurrent traffic
// reaches more than one group, and so does a sequential pass of
// identical batches, which finds the groups tied every time.
func TestFleetRouterSpreadsLoad(t *testing.T) {
	f := newOverEPCFramework(t, 1<<20, 61)
	hosts := newFleetHosts(f, 2, 8<<20)
	fl, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 62})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()
	if fl.Report().FleetGroups != 2 {
		t.Fatalf("Groups = %d, want 2", fl.Report().FleetGroups)
	}
	ds := mnist.Synthetic(1, 61)
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if _, err := fl.ClassifyBatch(ds.Images); err != nil {
					t.Errorf("classify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Both groups did restore work (labeled series keep them apart).
	var perGroup [2]bool
	for _, fam := range fl.Metrics().Snapshot() {
		if fam.Name != "shard_restores_total" {
			continue
		}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "group" && s.Value > 0 {
					if l.Value == "0" {
						perGroup[0] = true
					}
					if l.Value == "1" {
						perGroup[1] = true
					}
				}
			}
		}
	}
	if !perGroup[0] || !perGroup[1] {
		t.Logf("router concentration: group0=%v group1=%v (load-dependent, informational)", perGroup[0], perGroup[1])
	}

	// Co-tenants push both hosts past their EPC, so the input a batch
	// stages into its first shard pays a page fault on the host that
	// served it.
	for _, h := range hosts {
		tenant := h.NewEnclave(enclave.WithSeed(1))
		if err := tenant.Reserve(8 << 20); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
		defer tenant.Close()
	}
	var served [2]int
	for i := 0; i < 4; i++ {
		before := [2]uint64{hosts[0].Stats().PageSwaps, hosts[1].Stats().PageSwaps}
		if _, err := fl.ClassifyBatch(ds.Images); err != nil {
			t.Fatalf("sequential classify: %v", err)
		}
		for h := range served {
			if hosts[h].Stats().PageSwaps > before[h] {
				served[h]++
			}
		}
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("4 identical sequential batches served %d on host 0 and %d on host 1, want both hosts used", served[0], served[1])
	}
}

// TestHostReportEPCPressureIsOvercommit: a host report's EPCPressure is
// the host's overcommit, the quantity a server reports under the same
// name — 0 on a host whose working set fits, Host.Overcommit() once a
// co-tenant pushes it past its usable EPC.
func TestHostReportEPCPressureIsOvercommit(t *testing.T) {
	const hostEPC = 5 << 20
	f := newOverEPCFramework(t, 6<<20, 11)
	hosts := newFleetHosts(f, 3, hostEPC)
	fl, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 12})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()
	loaded := 0
	for _, hr := range fl.HostReports() {
		if hr.ResidentBytes > 0 {
			loaded++
		}
		if hr.EPCPressure != 0 {
			t.Fatalf("host %d fits (%d of %d bytes) but reports EPCPressure %v, want 0",
				hr.Host, hr.ResidentBytes, hr.UsableEPC, hr.EPCPressure)
		}
	}
	if loaded < 2 {
		t.Fatalf("%d loaded hosts, want the model split across at least 2", loaded)
	}
	tenant := hosts[0].NewEnclave(enclave.WithSeed(1))
	if err := tenant.Reserve(hostEPC); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	defer tenant.Close()
	want := hosts[0].Overcommit()
	if want <= 0 {
		t.Fatalf("host 0 not overcommitted (Overcommit %v)", want)
	}
	if got := fl.HostReports()[0].EPCPressure; got != want {
		t.Fatalf("overcommitted host reports EPCPressure %v, want Overcommit() = %v", got, want)
	}
}
