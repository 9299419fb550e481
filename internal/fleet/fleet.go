package fleet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plinius/internal/chaos"
	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/mirror"
	"plinius/internal/obs"
)

// Fleet errors.
var (
	ErrClosed = errors.New("fleet: fleet is closed")
	// ErrUnavailable is returned when a batch cannot be served because
	// the fleet has no live capacity: hosts are down and the survivors
	// hold no serving groups (a replan is in progress or has failed).
	// It is transient — a rejoining host clears it — so the serving
	// front end maps it to 503 + Retry-After rather than a hard error.
	ErrUnavailable = errors.New("fleet: no serving capacity (hosts down or replan in progress)")
	// ErrDegraded marks the fleet's degraded serving state: survivors
	// could not hold the full resident placement, so the fleet fell
	// back to a single streaming shard group. Serving continues —
	// slower, paying PM restores per batch — which is the point: the
	// degradation ladder is resident → streaming → shed, and ErrDegraded
	// names the middle rung in Stats and health reports.
	ErrDegraded = errors.New("fleet: degraded serving (streaming on survivors)")
	// ErrHandoffFault is returned by a Channel whose bounded retry could
	// not carry a hand-off through injected or transient faults. The
	// router treats it as retryable.
	ErrHandoffFault = errors.New("fleet: hand-off failed after retries")
)

// Hand-off fault policy: a dropped transfer is re-sent up to
// defaultHandoffRetries times with exponential backoff starting at
// defaultHandoffBackoff, charged to the destination's modeled clock.
const (
	defaultHandoffRetries = 5
	defaultHandoffBackoff = 200 * time.Microsecond
	// maxBatchRetries bounds the router-level retry of one micro-batch
	// across recoveries: each retry follows a detection + eviction +
	// replan pass, so more than a few only means hosts keep dying
	// faster than the fleet can replan.
	maxBatchRetries = 4
)

// Options parameterises New.
type Options struct {
	// Hosts is the fleet, in placement order. At least one is required;
	// the placement planner bin-packs shards across their headrooms.
	Hosts []*enclave.Host
	// Batch is the micro-batch size every group's plan reserves
	// activation buffers for. Zero uses the model's configured batch.
	Batch int
	// OverheadBytes is the parked per-shard-enclave working set
	// (default core.DefaultShardOverheadBytes).
	OverheadBytes int
	// Seed differentiates the shard enclaves' RNGs across groups.
	Seed int64
	// ChannelFaults, when non-nil, supplies a fault injector for each
	// inter-host channel as it is provisioned (keyed by the endpoint
	// host indices). Nil injectors are fine; the channel runs clean.
	ChannelFaults func(fromHost, toHost int) *chaos.Injector
	// Metrics is the registry the fabric series register into
	// (fleet_handoff_bytes_total and friends, plus every group's
	// shard counters labeled group=g). Nil gives the fleet a private
	// registry.
	Metrics *obs.Registry
}

// group is one replica group: a full copy of the shard plan, placed on
// its assignment of hosts, with an in-flight batch count the router
// balances on.
type group struct {
	sg       *core.ShardGroup
	hosts    []int // per-shard host index, into Fleet.hosts
	inflight atomic.Int64
}

// handoff implements core.Handoff for one replica group: stage pairs
// on the same host keep the in-process buffer pass (Carry is a no-op),
// pairs on different hosts get a Channel at Bind time.
type handoff struct {
	fl    *Fleet
	hosts []int
	chans map[int]*Channel // keyed by `from` stage index
}

func (h *handoff) Bind(from, to int, src, dst *enclave.Enclave) {
	if h.hosts[from] == h.hosts[to] {
		return
	}
	ch := &Channel{
		From: from, To: to,
		src: src, dst: dst,
		mBytes: h.fl.mBytes, mSeconds: h.fl.mSeconds, mRetries: h.fl.mRetries,
	}
	if h.fl.channelFaults != nil {
		ch.faults = h.fl.channelFaults(h.hosts[from], h.hosts[to])
	}
	h.chans[from] = ch
	// Groups are built by New or under the write lock, never
	// concurrently, so the append needs no lock of its own.
	h.fl.channels = append(h.fl.channels, ch)
}

func (h *handoff) Carry(from, to int, sealed []byte) error {
	ch := h.chans[from]
	if ch == nil {
		return nil // co-located stages: the in-process pass suffices
	}
	return ch.Carry(sealed)
}

// Fleet serves one logical model across many hosts: replica groups of
// pipelined shard enclaves, placed by the bin-packing planner, joined
// by inter-host channels, fronted by a least-loaded micro-batch
// router. ClassifyBatchCtx is safe for concurrent use.
//
// Control operations (Refresh, Close) drain and flip the whole
// fleet atomically: intake holds the read side of a lock for the full
// life of each batch, the control path takes the write side, so every
// in-flight batch completes on the old version, no new batch starts
// until the flip is done, and no request is ever dropped.
type Fleet struct {
	f         *core.Framework
	net       *darknet.Network // planning-side model parse, kept for replans
	hosts     []*enclave.Host
	placement Placement
	groups    []*group
	batch     int
	inputSize int
	overhead  int

	seed  int64
	epoch int64 // bumped per group rebuild, differentiates enclave RNGs

	channelFaults func(fromHost, toHost int) *chaos.Injector

	// mu gates intake against control operations (see type doc). The
	// recovery path (eviction + replan) is a control operation: it runs
	// under the write side, so the atomic-flip guarantee extends to
	// failure handling.
	mu       sync.RWMutex
	closed   bool
	down     []bool     // per-host death marks, guarded by mu
	channels []*Channel // every channel ever provisioned, guarded by mu

	// topo is what Report reads of the state above, republished
	// whenever New, recovery or a rejoin changes it.
	topo atomic.Pointer[topology]

	degraded atomic.Bool

	inflight atomic.Int64
	// next is the router's rotating tie-break cursor (see pick).
	next atomic.Uint64

	reg       *obs.Registry
	mBytes    *obs.Counter
	mSeconds  *obs.Counter
	mRetries  *obs.Counter
	mHostDown *obs.Counter
	mReplans  *obs.Counter
	mEvicted  *obs.Counter
}

var _ core.Backend = (*Fleet)(nil)

// topology is a fleet's shape as Report sees it: a snapshot, so that
// Report never waits on the lock a control call or a replan holds.
type topology struct {
	groups    []*core.ShardGroup
	channels  []*Channel
	shards    int
	hostsDown int
}

// publishTopologyLocked snapshots the shape for Report; the caller
// holds the write lock, or is New.
func (fl *Fleet) publishTopologyLocked() {
	t := &topology{channels: fl.channels, shards: len(fl.placement.Plan)}
	for _, g := range fl.groups {
		t.groups = append(t.groups, g.sg)
	}
	for _, d := range fl.down {
		if d {
			t.hostsDown++
		}
	}
	fl.topo.Store(t)
}

// New builds the fleet: the placement is restored from the durable
// serving layout when the recorded split and hosts still fit the
// current hosts, planned fresh otherwise — as many replica groups as
// the fleet's capacity admits, at least one and at most one per host —
// then recorded back; one shard group per replica group is built on
// its placed hosts, with a channel across every host boundary.
func New(f *core.Framework, opts Options) (*Fleet, error) {
	if len(opts.Hosts) == 0 {
		return nil, fmt.Errorf("%w: no hosts", ErrInfeasible)
	}
	// An independent parse of the model config drives planning: layer
	// footprints come from the same arithmetic the shard groups use,
	// without touching the enclave model.
	net, err := darknet.ParseConfig(strings.NewReader(f.ModelConfigText()), nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: model config: %w", err)
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = net.Config.Batch
	}
	if batch <= 0 {
		batch = 1
	}
	overhead := opts.OverheadBytes
	if overhead <= 0 {
		overhead = core.DefaultShardOverheadBytes
	}
	headrooms := make([]int, len(opts.Hosts))
	for i, h := range opts.Hosts {
		if h == nil {
			return nil, fmt.Errorf("fleet: host %d is nil", i)
		}
		headrooms[i] = h.Headroom()
	}

	placement, restored := persistedPlacement(f, net, headrooms, batch, overhead)
	if !restored {
		placement, err = PlanPlacement(net, headrooms, batch, overhead, 0)
		if err != nil {
			return nil, err
		}
	}

	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fl := &Fleet{
		f:             f,
		net:           net,
		hosts:         opts.Hosts,
		placement:     placement,
		batch:         batch,
		inputSize:     net.InputSize(),
		overhead:      overhead,
		seed:          opts.Seed,
		channelFaults: opts.ChannelFaults,
		down:          make([]bool, len(opts.Hosts)),
		reg:           reg,
	}
	// Fabric series register up front, so the families exist (at zero)
	// even for a single-host fleet with no cross-host channel — the
	// chaos families included, so a healthy fleet exposes them at zero.
	fl.mBytes = reg.Counter("fleet_handoff_bytes_total",
		"Sealed activation bytes carried across inter-host hand-off channels.")
	fl.mSeconds = reg.Counter("fleet_handoff_seconds_total",
		"Modeled wire time of inter-host hand-offs, in seconds.")
	fl.mRetries = reg.Counter("fleet_handoff_retries_total",
		"Hand-off transfers re-sent after a transient channel fault.")
	fl.mHostDown = reg.Counter("fleet_host_down_total",
		"Fleet hosts detected dead and marked down.")
	fl.mReplans = reg.Counter("fleet_replans_total",
		"Placement replans (host-failure recovery and rejoin promotion).")
	fl.mEvicted = reg.Counter("fleet_evicted_groups_total",
		"Replica groups evicted because a host they touched died.")
	reg.GaugeFunc("fleet_degraded",
		"1 while the fleet serves degraded (streaming on survivors), else 0.",
		func() float64 {
			if fl.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("fleet_router_queue_depth",
		"Micro-batches currently in flight across the fleet router.",
		func() float64 { return float64(fl.inflight.Load()) })
	for i, h := range opts.Hosts {
		host := h
		reg.GaugeFunc("fleet_host_headroom_bytes",
			"Unreserved usable EPC per fleet host.",
			func() float64 { return float64(host.Headroom()) },
			obs.Label{Key: "host", Value: strconv.Itoa(i)})
	}

	groups, err := fl.buildGroups(placement.Plan, placement.Groups, 0)
	if err != nil {
		return nil, err
	}
	fl.groups = groups
	if err := fl.recordPlacementLocked(); err != nil {
		for _, g := range fl.groups {
			_ = g.sg.Close()
		}
		return nil, err
	}
	fl.publishTopologyLocked()
	return fl, nil
}

// buildGroups builds one shard group per assignment, on its placed
// hosts, with a channel across every host boundary. labelBase
// offsets the group metric label so replacement groups built after an
// eviction do not collide with survivors. On error every group built so
// far is closed.
func (fl *Fleet) buildGroups(plan []darknet.ShardRange, assignments [][]int, labelBase int) ([]*group, error) {
	var groups []*group
	fail := func(err error) ([]*group, error) {
		for _, g := range groups {
			_ = g.sg.Close()
		}
		return nil, err
	}
	epoch := fl.epoch
	fl.epoch++
	for gi, assignment := range assignments {
		shardHosts := make([]*enclave.Host, len(assignment))
		for s, h := range assignment {
			shardHosts[s] = fl.hosts[h]
		}
		hd := &handoff{fl: fl, hosts: assignment, chans: make(map[int]*Channel)}
		sg, err := fl.f.NewShardGroup(core.ShardOptions{
			Plan:          plan,
			Hosts:         shardHosts,
			Host:          shardHosts[0],
			Handoff:       hd,
			Batch:         fl.batch,
			OverheadBytes: fl.overhead,
			Seed:          fl.seed + epoch*65536 + int64(gi)*1024,
			Metrics:       fl.reg,
			Labels:        []obs.Label{{Key: "group", Value: strconv.Itoa(labelBase + gi)}},
		})
		if err != nil {
			return fail(fmt.Errorf("fleet: group %d: %w", labelBase+gi, err))
		}
		groups = append(groups, &group{sg: sg, hosts: assignment})
	}
	return groups, nil
}

// persistedPlacement tries to restore the placement recorded in the
// serving layout. It is honoured only when it still describes this
// fleet — at least one group, host indices in range, and every host's
// recorded load fitting its *current* headroom (hosts shrink, models
// change; a stale placement replans rather than overcommitting a
// machine).
func persistedPlacement(f *core.Framework, net *darknet.Network, headrooms []int, batch, overhead int) (Placement, bool) {
	l := f.ServingLayout(len(net.Layers))
	if len(l.Hosts) == 0 {
		return Placement{}, false
	}
	fps, err := footprints(net, l.Plan, batch, darknet.FP32)
	if err != nil {
		return Placement{}, false
	}
	load := make([]int, len(headrooms))
	for _, assignment := range l.Hosts {
		for s, h := range assignment {
			if h < 0 || h >= len(headrooms) {
				return Placement{}, false
			}
			load[h] += fps[s] + overhead
		}
	}
	for h, used := range load {
		if used > headrooms[h] {
			return Placement{}, false
		}
	}
	return Placement{Plan: l.Plan, Footprints: fps, Groups: l.Hosts}, true
}

// pick routes one micro-batch to the least-loaded group by in-flight
// count. The scan starts at a cursor that advances on every pick, so
// ties go round-robin: equal-load groups share the work whatever the
// batches hold.
func (fl *Fleet) pick() *group {
	n := uint64(len(fl.groups))
	start := fl.next.Add(1)
	best := fl.groups[start%n]
	bestLoad := best.inflight.Load()
	for i := uint64(1); i < n; i++ {
		g := fl.groups[(start+i)%n]
		if load := g.inflight.Load(); load < bestLoad {
			best, bestLoad = g, load
		}
	}
	return best
}

// ClassifyBatchCtx routes the images to a replica group and pipelines
// them through its shard stages (obs.Trace spans on ctx ride through to
// the shard pipeline). Safe for concurrent use. The read lock is held for the
// whole batch, so a concurrent Refresh/Close waits out every
// admitted batch before flipping — no request is ever dropped by a
// control operation.
//
// Failure handling rides the same path: a batch that dies on a killed
// host (or exhausts a channel's transient-fault retry) triggers a
// recovery pass — mark hosts down, evict every group touching one,
// replan on the survivors — and is then re-routed to a surviving
// group. Sealed per-batch hand-offs make the re-route idempotent, so
// an accepted batch survives a host kill with no drop; only when the
// whole fleet is gone, the retries run out or ctx is done does the
// batch fail, typed ErrUnavailable: ctx is the caller's dispatch
// deadline.
func (fl *Fleet) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	for attempt := 0; ; attempt++ {
		classes, err := fl.classifyOnce(ctx, images)
		if err == nil || !retryableFault(err) {
			return classes, err
		}
		if attempt >= maxBatchRetries || ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %w", ErrUnavailable, err)
		}
		if rerr := fl.recoverHostFailure(); rerr != nil {
			return nil, fmt.Errorf("%w: recovery: %w", ErrUnavailable, rerr)
		}
	}
}

// retryableFault reports whether a batch error means "try another
// group", not "the request is bad": a dead host, an exhausted hand-off
// retry, or a group closed under the batch by a concurrent eviction.
func retryableFault(err error) bool {
	return errors.Is(err, enclave.ErrHostDown) ||
		errors.Is(err, ErrHandoffFault) ||
		errors.Is(err, core.ErrShardGroupClosed)
}

// classifyOnce routes one micro-batch to one replica group under the
// read lock.
func (fl *Fleet) classifyOnce(ctx context.Context, images []float32) ([]int, error) {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	if fl.closed {
		return nil, ErrClosed
	}
	if len(fl.groups) == 0 {
		downCount := 0
		for _, d := range fl.down {
			if d {
				downCount++
			}
		}
		return nil, fmt.Errorf("%w: %d of %d hosts down", ErrUnavailable, downCount, len(fl.hosts))
	}
	g := fl.pick()
	g.inflight.Add(1)
	fl.inflight.Add(1)
	defer func() {
		g.inflight.Add(-1)
		fl.inflight.Add(-1)
	}()
	return g.sg.ClassifyBatchCtx(ctx, images)
}

// recoverHostFailure is the detection + eviction + replan pass, run
// under the write lock so it is one atomic flip against intake: scan
// the hosts for new deaths, mark them down, close every replica group
// touching a dead host (their enclaves fail fast, so the drain cannot
// wedge), and replan the freed work onto the survivors' headroom. When
// nothing changed — another batch's recovery already ran, or the fault
// was a transient channel error — it returns immediately and the
// caller just retries on the current topology.
func (fl *Fleet) recoverHostFailure() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	defer fl.publishTopologyLocked()
	if fl.closed {
		return ErrClosed
	}
	newly := 0
	for i, h := range fl.hosts {
		if h.Down() && !fl.down[i] {
			fl.down[i] = true
			newly++
			fl.mHostDown.Inc()
		}
	}
	kept := make([]*group, 0, len(fl.groups))
	evicted := 0
	for _, g := range fl.groups {
		dead := false
		for _, hi := range g.hosts {
			if fl.down[hi] {
				dead = true
				break
			}
		}
		if dead {
			_ = g.sg.Close()
			evicted++
			fl.mEvicted.Inc()
		} else {
			kept = append(kept, g)
		}
	}
	if newly == 0 && evicted == 0 {
		return nil
	}
	fl.groups = kept
	return fl.replanLocked()
}

// replanLocked replans placement over the live hosts' current headroom
// and rebuilds groups to match, holding fl.mu. Survivor groups keep
// serving untouched; freed capacity is refilled with replacement
// groups when it admits them. When no group survived and the survivors
// cannot hold a full resident placement, the fleet degrades to a
// single streaming shard group (resident → streaming → shed ladder)
// rather than going dark. The final plan and hosts are recorded as the
// durable serving layout — one Romulus transaction, so a crash
// mid-rewrite recovers either the old or the new layout, never a torn
// mix.
func (fl *Fleet) replanLocked() error {
	fl.mReplans.Inc()
	fl.degraded.Store(false)
	var live []int
	for i := range fl.hosts {
		if !fl.down[i] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		// Total outage: shed until a host rejoins.
		fl.placement.Groups = nil
		return nil
	}
	headrooms := make([]int, len(live))
	for j, i := range live {
		headrooms[j] = fl.hosts[i].Headroom()
	}

	if len(fl.groups) > 0 {
		// Survivors keep serving on the shared plan; top up replica
		// groups on the freed capacity when it admits full copies.
		var extra [][]int
		for n := 1; len(fl.groups)+n <= len(live); n++ {
			a, ok := assign(fl.placement.Footprints, headrooms, fl.overhead, n)
			if !ok {
				break
			}
			extra = remapHosts(a, live)
		}
		if len(extra) > 0 {
			groups, err := fl.buildGroups(fl.placement.Plan, extra, len(fl.groups))
			if err == nil {
				fl.groups = append(fl.groups, groups...)
			}
			// A failed top-up is not fatal: the survivors still serve.
		}
		fl.syncPlacementLocked()
		return fl.recordPlacementLocked()
	}

	// Nothing survived: plan fresh over the survivors. Resident first;
	// when that is infeasible, degrade to one streaming group instead
	// of shedding.
	placement, err := PlanPlacement(fl.net, headrooms, fl.batch, fl.overhead, 0)
	if err == nil {
		placement.Groups = remapHosts(placement.Groups, live)
		groups, berr := fl.buildGroups(placement.Plan, placement.Groups, 0)
		if berr != nil {
			return berr
		}
		fl.groups = groups
		fl.placement = placement
		return fl.recordPlacementLocked()
	}
	if !errors.Is(err, ErrInfeasible) {
		return err
	}
	placement, err = fl.degradedPlacement(live, headrooms)
	if err != nil {
		// Even streaming cannot be built; shed until a host rejoins.
		fl.placement.Groups = nil
		return fl.recordPlacementLocked()
	}
	groups, err := fl.buildGroups(placement.Plan, placement.Groups, 0)
	if err != nil {
		return err
	}
	fl.groups = groups
	fl.placement = placement
	fl.degraded.Store(true)
	return fl.recordPlacementLocked()
}

// degradedPlacement plans the streaming fallback: shards bounded by the
// roomiest survivor's headroom, assigned across the survivors by
// remaining capacity, one group. The shards will not all be resident —
// that is the point; the shard groups' per-host residency logic parks
// the overflow in PM and streams it per batch.
func (fl *Fleet) degradedPlacement(live []int, headrooms []int) (Placement, error) {
	maxHead := 0
	for _, h := range headrooms {
		if h > maxHead {
			maxHead = h
		}
	}
	bound := maxHead - fl.overhead
	if bound < 1 {
		bound = 1
	}
	plan, err := fl.net.PlanShardsAt(bound, fl.batch, darknet.FP32)
	if err != nil {
		return Placement{}, fmt.Errorf("fleet: degraded plan: %w", err)
	}
	fps, err := footprints(fl.net, plan, fl.batch, darknet.FP32)
	if err != nil {
		return Placement{}, err
	}
	remaining := append([]int(nil), headrooms...)
	assignment := make([]int, len(plan))
	for s := range plan {
		best := 0
		for h, rem := range remaining {
			if rem > remaining[best] {
				best = h
			}
		}
		remaining[best] -= fl.overhead
		assignment[s] = live[best]
	}
	return Placement{Plan: plan, Footprints: fps, Groups: [][]int{assignment}}, nil
}

// remapHosts rewrites planner-local host indices (positions in the live
// list) back to fleet host indices.
func remapHosts(groups [][]int, live []int) [][]int {
	out := make([][]int, len(groups))
	for g, a := range groups {
		out[g] = make([]int, len(a))
		for s, h := range a {
			out[g][s] = live[h]
		}
	}
	return out
}

// syncPlacementLocked rebuilds fl.placement.Groups from the live
// groups' actual assignments.
func (fl *Fleet) syncPlacementLocked() {
	assignments := make([][]int, len(fl.groups))
	for i, g := range fl.groups {
		assignments[i] = g.hosts
	}
	fl.placement.Groups = assignments
}

// recordPlacementLocked records the current plan and its hosts as the
// durable serving layout (one Romulus transaction: old or new, never
// torn); the caller holds the write lock, or is New.
func (fl *Fleet) recordPlacementLocked() error {
	l := mirror.Layout{Plan: fl.placement.Plan, Hosts: fl.placement.Groups}
	if err := fl.f.RecordServingLayout(l); err != nil {
		return fmt.Errorf("fleet: record placement: %w", err)
	}
	return nil
}

// Rejoin re-admits hosts that have come back (enclave.Host.Rejoin) and
// promotes the fleet back to the best placement the live hosts can
// hold: everything is drained and rebuilt under the write lock, so the
// promotion is one atomic flip and — the planner being deterministic —
// a fully healed fleet lands back on its original resident placement.
func (fl *Fleet) Rejoin() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	defer fl.publishTopologyLocked()
	if fl.closed {
		return ErrClosed
	}
	changed := false
	for i, h := range fl.hosts {
		if fl.down[i] && !h.Down() {
			fl.down[i] = false
			changed = true
		}
	}
	if !changed {
		return nil
	}
	for _, g := range fl.groups {
		_ = g.sg.Close()
	}
	fl.groups = nil
	return fl.replanLocked()
}

// Refresh drains the fleet and rolls every replica group to the latest
// published version together under the write lock — one atomic
// fleet-wide flip. A group whose key is stale (Framework.RotateKey)
// is re-keyed first, as core.ShardGroup.Refresh does.
func (fl *Fleet) Refresh() (int, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return 0, ErrClosed
	}
	iter := 0
	for gi, g := range fl.groups {
		it, err := g.sg.Refresh()
		if err != nil {
			// The errored group kept its old version coherently (shard
			// groups stage their flips); groups before it already moved.
			// Surface the split-version state to the caller.
			return 0, fmt.Errorf("fleet: group %d: %w", gi, err)
		}
		iter = it
	}
	return iter, nil
}

// Close drains the fleet and tears down every replica group, returning
// all shard enclaves' footprints to their hosts.
func (fl *Fleet) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return ErrClosed
	}
	fl.closed = true
	var firstErr error
	for _, g := range fl.groups {
		if err := g.sg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Window returns the fleet's total in-flight batch capacity (the sum
// of the groups' pipeline windows).
func (fl *Fleet) Window() int {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	w := 0
	for _, g := range fl.groups {
		w += g.sg.Window()
	}
	return w
}

// Report sums the replica groups' pipeline reports (Shards counts the
// stages of one group) and adds the fabric: hosts, groups, hand-off
// traffic and the failure-domain state. It reads counters and the last
// published topology only, so a control call or a replan in progress
// never holds it up.
func (fl *Fleet) Report() core.BackendReport {
	t := fl.topo.Load()
	var r core.BackendReport
	for _, g := range t.groups {
		r.Add(g.Report())
	}
	r.Shards = t.shards
	r.FleetHosts = len(fl.hosts)
	r.FleetGroups = len(t.groups)
	for _, c := range t.channels {
		r.FleetHandoffs += c.Transfers()
		r.FleetHandoffBytes += c.Bytes()
	}
	r.FleetHostsDown = t.hostsDown
	r.FleetDegraded = fl.degraded.Load()
	r.FleetReplans = uint64(fl.mReplans.Value())
	r.FleetEvictedGroups = uint64(fl.mEvicted.Value())
	r.FleetHandoffRetries = uint64(fl.mRetries.Value())
	return r
}

// Version returns the published model version the fleet serves (the
// groups flip together, so any group's answer is the fleet's). Zero
// while a total outage leaves the fleet with no groups.
func (fl *Fleet) Version() uint64 {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	if len(fl.groups) == 0 {
		return 0
	}
	return fl.groups[0].sg.Version()
}

// Iteration returns the training iteration of the served snapshot, or
// zero while the fleet has no groups.
func (fl *Fleet) Iteration() int {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	if len(fl.groups) == 0 {
		return 0
	}
	return fl.groups[0].sg.Iteration()
}

// HostReport is one host's view in the fleet: its EPC budget, load,
// paging, and the shard ranges placed on it.
type HostReport struct {
	Host              int  `json:"host"`
	Down              bool `json:"down"`
	UsableEPC         int  `json:"usable_epc_bytes"`
	ResidentBytes     int  `json:"resident_bytes"`
	PeakResidentBytes int  `json:"peak_resident_bytes"`
	HeadroomBytes     int  `json:"headroom_bytes"`
	// EPCPressure is the host's EPC overcommit (enclave.Host.Overcommit):
	// 0 while its working set fits the usable EPC, the same quantity a
	// server reports as Stats.EPCPressure.
	EPCPressure float64  `json:"epc_pressure"`
	PageSwaps   uint64   `json:"page_swaps"`
	Shards      []string `json:"shards"`
}

// HostReports returns one report per fleet host.
func (fl *Fleet) HostReports() []HostReport {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	reports := make([]HostReport, len(fl.hosts))
	for i, h := range fl.hosts {
		st := h.Stats()
		usable := h.UsableEPC()
		r := HostReport{
			Host:              i,
			Down:              fl.down[i],
			UsableEPC:         usable,
			ResidentBytes:     st.ResidentBytes,
			PeakResidentBytes: st.PeakResidentBytes,
			HeadroomBytes:     h.Headroom(),
			EPCPressure:       h.Overcommit(),
			PageSwaps:         st.PageSwaps,
		}
		for g, assignment := range fl.placement.Groups {
			for s, host := range assignment {
				if host == i {
					rng := fl.placement.Plan[s]
					r.Shards = append(r.Shards,
						fmt.Sprintf("g%d:[%d,%d)", g, rng.From, rng.To))
				}
			}
		}
		reports[i] = r
	}
	return reports
}
