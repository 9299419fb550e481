package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"plinius/internal/chaos"
	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
)

// chaosFleet builds the standard chaos geometry: a 6 MB model across
// three 4 MB hosts — resident while all three live, infeasible for any
// two, so a kill pushes the fleet onto the degraded-streaming rung.
func chaosFleet(t *testing.T, opts Options) (*core.Framework, []*enclave.Host, *Fleet) {
	t.Helper()
	f := newOverEPCFramework(t, 6<<20, 42)
	hosts := newFleetHosts(f, 3, 4<<20)
	opts.Hosts = hosts
	if opts.Batch == 0 {
		opts.Batch = 1
	}
	if opts.OverheadBytes == 0 {
		opts.OverheadBytes = 64 << 10
	}
	fl, err := New(f, opts)
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	return f, hosts, fl
}

// TestKillHostUnderLoadZeroDrops is the headline acceptance test:
// killing a placed host under concurrent load drops zero accepted
// batches — every batch in flight on the dead host is re-routed and
// retried on the survivors, which (two 4 MB hosts against a 6 MB
// model) serve degraded-streaming. The drops row runs the same kill
// with every seventh hand-off on every channel dropped, so channel
// retry and host-failure recovery overlap.
func TestKillHostUnderLoadZeroDrops(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults func(fromHost, toHost int) *chaos.Injector
		// warm batches are served one at a time before the load, so
		// each channel's attempt counter passes the drop period before
		// the kill.
		warm int
	}{
		{name: "clean"},
		{
			name:   "periodic drops",
			faults: func(fromHost, toHost int) *chaos.Injector { return chaos.DropEvery(7) },
			warm:   7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, hosts, fl := chaosFleet(t, Options{ChannelFaults: tc.faults})
			if fl.Report().Streaming {
				t.Fatalf("fleet starts streaming; want resident before the kill")
			}
			victim := hosts[fl.Placement().Groups[0][0]]

			// 6 concurrent batches: a third before the kill, the rest
			// riding across it — enough to exercise in-flight
			// re-routing while keeping the degraded-streaming tail
			// affordable under -race.
			const batches = 6
			batch := fl.Batch()
			images := mnist.Synthetic(batch*batches, 1).Images
			in := f.Net.InputSize()

			for i := 0; i < tc.warm; i++ {
				if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
					t.Fatalf("warm-up batch %d: %v", i, err)
				}
			}
			var wg sync.WaitGroup
			errCh := make(chan error, batches)
			for b := 0; b < batches; b++ {
				if b == batches/3 {
					victim.Kill()
				}
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					if _, err := fl.ClassifyBatchCtx(context.Background(), images[b*batch*in:(b+1)*batch*in]); err != nil {
						errCh <- err
					}
				}(b)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatalf("batch dropped across host kill: %v", err)
			}
			rep := fl.Report()
			if rep.FleetHostsDown != 1 {
				t.Fatalf("HostsDown = %d, want 1", rep.FleetHostsDown)
			}
			if rep.FleetEvictedGroups < 1 {
				t.Fatalf("EvictedGroups = %d, want >= 1", rep.FleetEvictedGroups)
			}
			if rep.FleetReplans < 1 {
				t.Fatalf("Replans = %d, want >= 1", rep.FleetReplans)
			}
			if !rep.FleetDegraded || !rep.Streaming {
				t.Fatalf("after kill: degraded=%v streaming=%v, want degraded streaming on the survivors",
					rep.FleetDegraded, rep.Streaming)
			}
			if tc.faults != nil && rep.FleetHandoffRetries < 1 {
				t.Fatalf("periodic channel drops recorded no hand-off retries")
			}
		})
	}
}

// TestRejoinPromotesToOriginalResidentPlacement: after the killed host
// rejoins, the fleet promotes back off the degraded rung and — the
// planner being deterministic — lands on the original resident
// placement.
func TestRejoinPromotesToOriginalResidentPlacement(t *testing.T) {
	f, hosts, fl := chaosFleet(t, Options{})
	original := fl.Placement()
	victimIdx := original.Groups[0][0]
	victim := hosts[victimIdx]
	batch := fl.Batch()
	images := mnist.Synthetic(batch, 1).Images
	in := f.Net.InputSize()

	victim.Kill()
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch across kill: %v", err)
	}
	if !fl.Report().FleetDegraded {
		t.Fatalf("fleet not degraded after losing 1 of 3 hosts")
	}

	victim.Rejoin()
	if err := fl.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if fl.Report().FleetDegraded || fl.Report().Streaming {
		t.Fatalf("after rejoin: degraded=%v streaming=%v, want resident", fl.Report().FleetDegraded, fl.Report().Streaming)
	}
	if fl.Report().FleetHostsDown != 0 {
		t.Fatalf("HostsDown = %d after rejoin, want 0", fl.Report().FleetHostsDown)
	}
	promoted := fl.Placement()
	if !reflect.DeepEqual(original.Plan, promoted.Plan) || !reflect.DeepEqual(original.Groups, promoted.Groups) {
		t.Fatalf("promoted placement %v != original %v", promoted.Groups, original.Groups)
	}
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch after rejoin: %v", err)
	}
}

// TestHandoffRetriesThroughTransientDrops: a channel that drops the
// first transfers recovers them through the bounded retry — the batch
// succeeds and the retry counter records the re-sends.
func TestHandoffRetriesThroughTransientDrops(t *testing.T) {
	f, _, fl := chaosFleet(t, Options{
		ChannelFaults: func(fromHost, toHost int) *chaos.Injector {
			return chaos.DropFirst(3)
		},
	})
	if fl.Channels() == 0 {
		t.Fatalf("geometry has no inter-host channel; the fault path is untested")
	}
	batch := fl.Batch()
	images := mnist.Synthetic(batch, 1).Images
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*f.Net.InputSize()]); err != nil {
		t.Fatalf("batch through injected drops: %v", err)
	}
	if fl.Report().FleetHandoffRetries < 3 {
		t.Fatalf("HandoffRetries = %d, want >= 3 (DropFirst(3) per channel)", fl.Report().FleetHandoffRetries)
	}
}

// TestHandoffExhaustionIsTypedUnavailable: when faults outlast the
// channel retry budget, the batch fails with the typed ErrUnavailable
// wrapping ErrHandoffFault — the 503 + Retry-After path, not a generic
// 500. With a live ctx the router first retries the batch
// maxBatchRetries times; a cancelled ctx is the caller's dispatch
// deadline, so the batch fails after its first attempt with no
// recovery pass.
func TestHandoffExhaustionIsTypedUnavailable(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name     string
		ctx      context.Context
		attempts int // routed attempts of the batch
	}{
		{name: "live ctx", ctx: context.Background(), attempts: maxBatchRetries + 1},
		{name: "cancelled ctx", ctx: cancelled, attempts: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _, fl := chaosFleet(t, Options{
				ChannelFaults: func(fromHost, toHost int) *chaos.Injector {
					// Effectively infinite drops: no retry budget survives this.
					return chaos.DropFirst(1 << 20)
				},
			})
			replans := fl.Report().FleetReplans
			batch := fl.Batch()
			images := mnist.Synthetic(batch, 1).Images
			_, err := fl.ClassifyBatchCtx(tc.ctx, images[:batch*f.Net.InputSize()])
			if err == nil {
				t.Fatalf("batch succeeded through unbounded drops")
			}
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("err = %v, want ErrUnavailable", err)
			}
			if !errors.Is(err, ErrHandoffFault) {
				t.Fatalf("err = %v, want it to wrap ErrHandoffFault", err)
			}
			rep := fl.Report()
			if rep.FleetReplans != replans {
				t.Fatalf("Replans %d -> %d on a channel fault; want no replan", replans, rep.FleetReplans)
			}
			// Each attempt exhausts the first cross-host channel it meets.
			if want := uint64(tc.attempts * (defaultHandoffRetries + 1)); rep.FleetHandoffRetries != want {
				t.Fatalf("HandoffRetries = %d, want %d (%d attempts x %d sends)",
					rep.FleetHandoffRetries, want, tc.attempts, defaultHandoffRetries+1)
			}
		})
	}
}

// TestKillDuringRefresh races a host kill against a fleet-wide Refresh
// under concurrent load. Run with -race in CI. Either the Refresh wins
// (and the kill is recovered after) or the kill makes it fail typed —
// both fine; what must hold is no deadlock, no panic, and the fleet
// serving again once recovery has run.
func TestKillDuringRefresh(t *testing.T) {
	// Smaller geometry than chaosFleet: the survivors can hold this
	// model resident, so recovery replans without the (slow under
	// -race) streaming rung — the race being tested is between the
	// kill, the refresh flip and concurrent load, not the degradation.
	f := newOverEPCFramework(t, 4<<20, 47)
	hosts := newFleetHosts(f, 3, 4<<20)
	fl, err := New(f, Options{Hosts: hosts, Batch: 1, OverheadBytes: 64 << 10, Seed: 48})
	if err != nil {
		t.Fatalf("New fleet: %v", err)
	}
	defer fl.Close()
	victim := hosts[fl.Placement().Groups[0][0]]
	batch := fl.Batch()
	const batches = 3
	images := mnist.Synthetic(batch*batches, 1).Images
	in := f.Net.InputSize()

	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			// Drops are acceptable here: the kill may race the refresh
			// flip itself; zero-drop under kill is asserted separately.
			_, _ = fl.ClassifyBatchCtx(context.Background(), images[b*batch*in:(b+1)*batch*in])
		}(b)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = fl.Refresh()
	}()
	go func() {
		defer wg.Done()
		victim.Kill()
	}()
	wg.Wait()

	// Drive recovery to quiescence: after at most a few retried batches
	// the fleet must serve again on the survivors.
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch after kill-during-refresh: %v", err)
	}
	if fl.Report().FleetHostsDown != 1 {
		t.Fatalf("HostsDown = %d, want 1", fl.Report().FleetHostsDown)
	}
}

// TestRecreateAfterReplanRestoresConsistentPlacement: the replan
// rewrites the durable serving layout; a fleet re-created over the
// same framework must restore a consistent placement — the recorded
// one when it still fits, a fresh plan otherwise, never a torn mix
// (layout validation plus the Romulus transaction guarantee this).
func TestRecreateAfterReplanRestoresConsistentPlacement(t *testing.T) {
	f, hosts, fl := chaosFleet(t, Options{})
	victim := hosts[fl.Placement().Groups[0][0]]
	batch := fl.Batch()
	images := mnist.Synthetic(batch, 1).Images
	in := f.Net.InputSize()

	victim.Kill()
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch across kill: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The host comes back; a new fleet (fresh process, same PM) starts.
	victim.Rejoin()
	fl2, err := New(f, Options{Hosts: hosts, Batch: batch, OverheadBytes: 64 << 10})
	if err != nil {
		t.Fatalf("re-created fleet: %v", err)
	}
	defer fl2.Close()
	restored := fl2.Placement()
	// Consistency: every group covers every shard exactly once on valid
	// hosts — i.e. the layout round-tripped whole. It may equal the
	// degraded placement (recorded last) or a fresh resident plan.
	if len(restored.Groups) == 0 {
		t.Fatalf("re-created fleet has no groups")
	}
	for g, assignment := range restored.Groups {
		if len(assignment) != len(restored.Plan) {
			t.Fatalf("group %d covers %d shards, plan has %d", g, len(assignment), len(restored.Plan))
		}
		for s, h := range assignment {
			if h < 0 || h >= len(hosts) {
				t.Fatalf("group %d shard %d on invalid host %d", g, s, h)
			}
		}
	}
	if _, err := fl2.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch on re-created fleet: %v", err)
	}
}

// TestTotalOutageShedsTyped: with every host dead the fleet sheds with
// ErrUnavailable instead of hanging, and recovers when hosts rejoin.
func TestTotalOutageShedsTyped(t *testing.T) {
	f, hosts, fl := chaosFleet(t, Options{})
	batch := fl.Batch()
	images := mnist.Synthetic(batch, 1).Images
	in := f.Net.InputSize()

	for _, h := range hosts {
		h.Kill()
	}
	_, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in])
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("total outage err = %v, want ErrUnavailable", err)
	}
	if fl.Version() != 0 {
		t.Fatalf("Version = %d with no groups, want 0", fl.Version())
	}

	for _, h := range hosts {
		h.Rejoin()
	}
	if err := fl.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if _, err := fl.ClassifyBatchCtx(context.Background(), images[:batch*in]); err != nil {
		t.Fatalf("batch after full rejoin: %v", err)
	}
	if fl.Report().FleetDegraded {
		t.Fatalf("fleet degraded after full rejoin")
	}
}
