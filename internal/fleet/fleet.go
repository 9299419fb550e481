package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
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

// Default hand-off fault policy: a transient channel fault is re-sent
// up to defaultHandoffRetries times with exponential backoff starting
// at defaultHandoffBackoff.
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
	// Replicas is the number of replica groups (full copies of the
	// shard plan). Zero or negative packs as many as the fleet's
	// capacity admits, at least one and at most one per host.
	Replicas int
	// Batch is the micro-batch size every group's plan reserves
	// activation buffers for. Zero uses the model's configured batch.
	Batch int
	// OverheadBytes is the parked per-shard-enclave working set
	// (default core.DefaultShardOverheadBytes).
	OverheadBytes int
	// ChannelLatency is the modeled one-way latency of each inter-host
	// hand-off channel.
	ChannelLatency time.Duration
	// ChannelBandwidth is the modeled channel bandwidth in bytes per
	// second; zero or negative means unbounded.
	ChannelBandwidth float64
	// Seed differentiates the shard enclaves' RNGs across groups.
	Seed int64
	// DisablePrefetch turns off double-buffered restores in every
	// group's pipeline.
	DisablePrefetch bool
	// ChannelFaults, when non-nil, supplies a fault injector for each
	// inter-host channel as it is provisioned (keyed by the endpoint
	// host indices). Nil injectors are fine; the channel runs clean.
	ChannelFaults func(fromHost, toHost int) *chaos.Injector
	// HandoffDeadline bounds one hand-off transfer's modeled wire time:
	// a transfer delayed past it is treated as lost and re-sent. Zero
	// disables the deadline (a transfer is only re-sent when dropped).
	HandoffDeadline time.Duration
	// HandoffRetries caps re-sends of one hand-off after transient
	// faults (default defaultHandoffRetries). Negative disables retry.
	HandoffRetries int
	// HandoffBackoff is the base of the exponential backoff between
	// hand-off re-sends (default defaultHandoffBackoff).
	HandoffBackoff time.Duration
	// DispatchDeadline bounds one micro-batch's total dispatch time
	// across router-level retries and recoveries, in wall-clock time.
	// Zero means no deadline.
	DispatchDeadline time.Duration
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
// pairs on different hosts get an attested Channel provisioned at Bind
// time.
type handoff struct {
	fl    *Fleet
	hosts []int
	chans map[int]*Channel // keyed by `from` stage index
}

func (h *handoff) Bind(from, to int, src, dst *enclave.Enclave) error {
	if h.hosts[from] == h.hosts[to] {
		return nil
	}
	var faults *chaos.Injector
	if h.fl.channelFaults != nil {
		faults = h.fl.channelFaults(h.hosts[from], h.hosts[to])
	}
	ch, err := newChannel(from, to, src, dst, chanConfig{
		latency:   h.fl.latency,
		bandwidth: h.fl.bandwidth,
		deadline:  h.fl.handoffDeadline,
		retries:   h.fl.handoffRetries,
		backoff:   h.fl.handoffBackoff,
		faults:    faults,
		mBytes:    h.fl.mBytes,
		mSeconds:  h.fl.mSeconds,
		mRetries:  h.fl.mRetries,
	})
	if err != nil {
		return err
	}
	h.chans[from] = ch
	h.fl.chanMu.Lock()
	h.fl.channels = append(h.fl.channels, ch)
	h.fl.chanMu.Unlock()
	return nil
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
// by attested inter-host channels, fronted by a least-loaded
// micro-batch router. ClassifyBatch is safe for concurrent use.
//
// Control operations (Refresh, Rotate, Close) drain and flip the whole
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

	seed            int64
	epoch           int64 // bumped per group rebuild, differentiates enclave RNGs
	replicasOpt     int
	disablePrefetch bool

	latency   time.Duration
	bandwidth float64

	channelFaults    func(fromHost, toHost int) *chaos.Injector
	handoffDeadline  time.Duration
	handoffRetries   int
	handoffBackoff   time.Duration
	dispatchDeadline time.Duration

	// mu gates intake against control operations (see type doc). The
	// recovery path (eviction + replan) is a control operation: it runs
	// under the write side, so the atomic-flip guarantee extends to
	// failure handling.
	mu     sync.RWMutex
	closed bool
	down   []bool // per-host death marks, guarded by mu

	degraded atomic.Bool

	inflight atomic.Int64

	chanMu   sync.Mutex
	channels []*Channel

	reg       *obs.Registry
	mBytes    *obs.Counter
	mSeconds  *obs.Counter
	mRetries  *obs.Counter
	mHostDown *obs.Counter
	mReplans  *obs.Counter
	mEvicted  *obs.Counter
}

// New builds the fleet: the placement is restored from the durable
// shard + placement manifests when the recorded split still fits the
// current hosts, planned fresh otherwise, then recorded back; one
// shard group per replica group is built on its placed hosts, with
// attested channels provisioned across every host boundary.
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

	placement, restored := persistedPlacement(f, net, headrooms, batch, overhead, opts.Replicas)
	if !restored {
		placement, err = PlanPlacement(net, headrooms, batch, overhead, opts.Replicas)
		if err != nil {
			return nil, err
		}
	}

	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	handoffRetries := opts.HandoffRetries
	switch {
	case handoffRetries == 0:
		handoffRetries = defaultHandoffRetries
	case handoffRetries < 0:
		handoffRetries = 0
	}
	handoffBackoff := opts.HandoffBackoff
	if handoffBackoff <= 0 {
		handoffBackoff = defaultHandoffBackoff
	}
	fl := &Fleet{
		f:                f,
		net:              net,
		hosts:            opts.Hosts,
		placement:        placement,
		batch:            batch,
		inputSize:        net.InputSize(),
		overhead:         overhead,
		seed:             opts.Seed,
		replicasOpt:      opts.Replicas,
		disablePrefetch:  opts.DisablePrefetch,
		latency:          opts.ChannelLatency,
		bandwidth:        opts.ChannelBandwidth,
		channelFaults:    opts.ChannelFaults,
		handoffDeadline:  opts.HandoffDeadline,
		handoffRetries:   handoffRetries,
		handoffBackoff:   handoffBackoff,
		dispatchDeadline: opts.DispatchDeadline,
		down:             make([]bool, len(opts.Hosts)),
		reg:              reg,
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
	if err := f.RecordPlacement(placementEntries(placement)); err != nil {
		for _, g := range fl.groups {
			_ = g.sg.Close()
		}
		return nil, fmt.Errorf("fleet: record placement: %w", err)
	}
	return fl, nil
}

// buildGroups builds one shard group per assignment, on its placed
// hosts, with attested channels across every host boundary. labelBase
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
			Plan:            plan,
			Hosts:           shardHosts,
			Host:            shardHosts[0],
			Handoff:         hd,
			Batch:           fl.batch,
			OverheadBytes:   fl.overhead,
			Seed:            fl.seed + epoch*65536 + int64(gi)*1024,
			DisablePrefetch: fl.disablePrefetch,
			Metrics:         fl.reg,
			Labels:          []obs.Label{{Key: "group", Value: strconv.Itoa(labelBase + gi)}},
		})
		if err != nil {
			return fail(fmt.Errorf("fleet: group %d: %w", labelBase+gi, err))
		}
		groups = append(groups, &group{sg: sg, hosts: assignment})
	}
	return groups, nil
}

// placementEntries flattens a placement for the durable manifest.
func placementEntries(p Placement) []mirror.PlacementEntry {
	var entries []mirror.PlacementEntry
	for g, assignment := range p.Groups {
		for s, h := range assignment {
			entries = append(entries, mirror.PlacementEntry{Group: g, Shard: s, Host: h})
		}
	}
	return entries
}

// persistedPlacement tries to restore the previously recorded
// placement: the durable shard manifest gives the plan, the placement
// manifest the host assignment. It is honoured only when it still
// describes this fleet — dense groups each covering every shard exactly
// once, host indices in range, and every host's recorded load fitting
// its *current* headroom (hosts shrink, models change; a stale
// placement replans rather than overcommitting a machine).
func persistedPlacement(f *core.Framework, net *darknet.Network, headrooms []int, batch, overhead, replicas int) (Placement, bool) {
	plan := f.PersistedShardPlan(len(net.Layers))
	if plan == nil {
		return Placement{}, false
	}
	entries, err := f.PersistedPlacement()
	if err != nil || len(entries) == 0 {
		return Placement{}, false
	}
	fps, err := footprints(net, plan, batch, darknet.FP32)
	if err != nil {
		return Placement{}, false
	}
	numGroups := 0
	for _, e := range entries {
		if e.Group >= numGroups {
			numGroups = e.Group + 1
		}
	}
	if len(entries) != numGroups*len(plan) {
		return Placement{}, false
	}
	if replicas > 0 && numGroups != replicas {
		return Placement{}, false
	}
	groups := make([][]int, numGroups)
	for g := range groups {
		groups[g] = make([]int, len(plan))
		for s := range groups[g] {
			groups[g][s] = -1
		}
	}
	for _, e := range entries {
		if e.Group < 0 || e.Shard < 0 || e.Shard >= len(plan) ||
			e.Host < 0 || e.Host >= len(headrooms) || groups[e.Group][e.Shard] != -1 {
			return Placement{}, false
		}
		groups[e.Group][e.Shard] = e.Host
	}
	load := make([]int, len(headrooms))
	for _, assignment := range groups {
		for s, h := range assignment {
			load[h] += fps[s] + overhead
		}
	}
	for h, l := range load {
		if l > headrooms[h] {
			return Placement{}, false
		}
	}
	return Placement{Plan: plan, Footprints: fps, Groups: groups}, true
}

// pick routes one micro-batch: least-loaded by in-flight count, ties
// broken by a consistent hash of the batch contents so equal-load
// groups still spread deterministically.
func (fl *Fleet) pick(images []float32) *group {
	if len(fl.groups) == 1 {
		return fl.groups[0]
	}
	best := -1
	var bestLoad int64
	tie := false
	for i, g := range fl.groups {
		load := g.inflight.Load()
		switch {
		case best == -1 || load < bestLoad:
			best, bestLoad, tie = i, load, false
		case load == bestLoad:
			tie = true
		}
	}
	if !tie {
		return fl.groups[best]
	}
	h := fnv.New64a()
	n := len(images)
	if n > 64 {
		n = 64
	}
	for _, v := range images[:n] {
		var b [4]byte
		u := uint32(v * 1e6)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		_, _ = h.Write(b[:])
	}
	candidates := make([]*group, 0, len(fl.groups))
	for _, g := range fl.groups {
		if g.inflight.Load() == bestLoad {
			candidates = append(candidates, g)
		}
	}
	if len(candidates) == 0 {
		return fl.groups[best]
	}
	return candidates[h.Sum64()%uint64(len(candidates))]
}

// ClassifyBatch routes the images to a replica group and pipelines
// them through its shard stages. Safe for concurrent use.
func (fl *Fleet) ClassifyBatch(images []float32) ([]int, error) {
	return fl.ClassifyBatchCtx(context.Background(), images)
}

// ClassifyBatchCtx is ClassifyBatch with a context (obs.Trace spans
// ride through to the shard pipeline). The read lock is held for the
// whole batch, so a concurrent Refresh/Rotate/Close waits out every
// admitted batch before flipping — no request is ever dropped by a
// control operation.
//
// Failure handling rides the same path: a batch that dies on a killed
// host (or exhausts a channel's transient-fault retry) triggers a
// recovery pass — mark hosts down, evict every group touching one,
// replan on the survivors — and is then re-routed to a surviving
// group. Sealed per-batch hand-offs make the re-route idempotent, so
// an accepted batch survives a host kill with no drop; only when the
// whole fleet is gone (or DispatchDeadline expires) does the batch
// fail, typed ErrUnavailable.
func (fl *Fleet) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	var deadline time.Time
	if fl.dispatchDeadline > 0 {
		deadline = time.Now().Add(fl.dispatchDeadline)
	}
	for attempt := 0; ; attempt++ {
		classes, err := fl.classifyOnce(ctx, images)
		if err == nil || !retryableFault(err) {
			return classes, err
		}
		if attempt >= maxBatchRetries || ctx.Err() != nil ||
			(!deadline.IsZero() && time.Now().After(deadline)) {
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
	g := fl.pick(images)
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
// rather than going dark. The final placement is recorded to the
// durable manifest — a Romulus transaction, so a crash mid-rewrite
// recovers either the old or the new placement, never a torn mix.
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
		if fl.replicasOpt > 0 {
			if want := fl.replicasOpt - len(fl.groups); want > 0 {
				if a, ok := assign(fl.placement.Footprints, headrooms, fl.overhead, want); ok {
					extra = remapHosts(a, live)
				}
			}
		} else {
			for n := 1; len(fl.groups)+n <= len(live); n++ {
				a, ok := assign(fl.placement.Footprints, headrooms, fl.overhead, n)
				if !ok {
					break
				}
				extra = remapHosts(a, live)
			}
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
	placement, err := PlanPlacement(fl.net, headrooms, fl.batch, fl.overhead, fl.replicasOpt)
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

// recordPlacementLocked writes the current placement to the durable
// manifest (one Romulus transaction: old or new, never torn).
func (fl *Fleet) recordPlacementLocked() error {
	if err := fl.f.RecordPlacement(placementEntries(fl.placement)); err != nil {
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

// control drains the fleet and runs op on every replica group under
// the write lock: one atomic fleet-wide flip.
func (fl *Fleet) control(op func(*core.ShardGroup) (int, error)) (int, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return 0, ErrClosed
	}
	iter := 0
	for gi, g := range fl.groups {
		it, err := op(g.sg)
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

// Refresh drains the fleet and rolls every replica group to the latest
// published version together.
func (fl *Fleet) Refresh() (int, error) {
	return fl.control((*core.ShardGroup).Refresh)
}

// Rotate drains the fleet and re-provisions the framework's current
// data key into every shard enclave of every group, then refreshes to
// the snapshot published under it. Call Framework.RotateKey first.
func (fl *Fleet) Rotate() (int, error) {
	return fl.control((*core.ShardGroup).Rotate)
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

// Hosts returns the number of hosts in the fleet.
func (fl *Fleet) Hosts() int { return len(fl.hosts) }

// Groups returns the number of replica groups.
func (fl *Fleet) Groups() int {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	return len(fl.groups)
}

// Shards returns the number of pipeline stages per replica group.
func (fl *Fleet) Shards() int {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	return len(fl.placement.Plan)
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

// Streaming reports whether any replica group streams parked ranges
// from PM per batch.
func (fl *Fleet) Streaming() bool {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	for _, g := range fl.groups {
		if g.sg.Streaming() {
			return true
		}
	}
	return false
}

// Degraded reports whether the fleet is serving degraded: survivors
// could not hold the full resident placement and the fleet fell back
// to a streaming group (the ErrDegraded state).
func (fl *Fleet) Degraded() bool { return fl.degraded.Load() }

// HostsDown returns how many fleet hosts are currently marked down.
func (fl *Fleet) HostsDown() int {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	n := 0
	for _, d := range fl.down {
		if d {
			n++
		}
	}
	return n
}

// Replans counts placement replans (failure recovery and rejoin
// promotion).
func (fl *Fleet) Replans() uint64 { return uint64(fl.mReplans.Value()) }

// EvictedGroups counts replica groups evicted because a host died.
func (fl *Fleet) EvictedGroups() uint64 { return uint64(fl.mEvicted.Value()) }

// HandoffRetries counts hand-off transfers re-sent after transient
// channel faults.
func (fl *Fleet) HandoffRetries() uint64 { return uint64(fl.mRetries.Value()) }

// Batch returns the plan's micro-batch bound.
func (fl *Fleet) Batch() int { return fl.batch }

// InputSize returns the flattened per-image input size.
func (fl *Fleet) InputSize() int { return fl.inputSize }

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

// Placement returns the fleet's placement (shared plan, per-group host
// assignment).
func (fl *Fleet) Placement() Placement {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	p := Placement{
		Plan:       append([]darknet.ShardRange(nil), fl.placement.Plan...),
		Footprints: append([]int(nil), fl.placement.Footprints...),
		Groups:     make([][]int, len(fl.placement.Groups)),
	}
	for g, a := range fl.placement.Groups {
		p.Groups[g] = append([]int(nil), a...)
	}
	return p
}

// Metrics returns the registry holding the fleet's fabric series and
// every group's shard counters.
func (fl *Fleet) Metrics() *obs.Registry { return fl.reg }

// InFlight returns the micro-batches currently inside the router.
func (fl *Fleet) InFlight() int { return int(fl.inflight.Load()) }

// HandoffBytes returns the sealed bytes carried across all inter-host
// channels.
func (fl *Fleet) HandoffBytes() uint64 {
	fl.chanMu.Lock()
	defer fl.chanMu.Unlock()
	var total uint64
	for _, c := range fl.channels {
		total += c.Bytes()
	}
	return total
}

// HandoffTransfers returns the number of inter-host hand-offs carried.
func (fl *Fleet) HandoffTransfers() uint64 {
	fl.chanMu.Lock()
	defer fl.chanMu.Unlock()
	var total uint64
	for _, c := range fl.channels {
		total += c.Transfers()
	}
	return total
}

// Channels returns the number of attested inter-host channels.
func (fl *Fleet) Channels() int {
	fl.chanMu.Lock()
	defer fl.chanMu.Unlock()
	return len(fl.channels)
}

// sumGroups totals one shard-group counter across the fleet.
func (fl *Fleet) sumGroups(pick func(*core.ShardGroup) uint64) uint64 {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	var total uint64
	for _, g := range fl.groups {
		total += pick(g.sg)
	}
	return total
}

// Restores counts layer-range restores from PM across all groups.
func (fl *Fleet) Restores() uint64 {
	return fl.sumGroups((*core.ShardGroup).Restores)
}

// Stalls counts pipeline stalls across all groups.
func (fl *Fleet) Stalls() uint64 {
	return fl.sumGroups((*core.ShardGroup).Stalls)
}

// PrefetchWaits counts prefetch waits across all groups.
func (fl *Fleet) PrefetchWaits() uint64 {
	return fl.sumGroups((*core.ShardGroup).PrefetchWaits)
}

// PrefetchedRestores counts background-prefetched restores across all
// groups.
func (fl *Fleet) PrefetchedRestores() uint64 {
	return fl.sumGroups((*core.ShardGroup).PrefetchedRestores)
}

// HostReport is one host's view in the fleet: its EPC budget, load,
// paging, and the shard ranges placed on it.
type HostReport struct {
	Host              int      `json:"host"`
	Down              bool     `json:"down"`
	UsableEPC         int      `json:"usable_epc_bytes"`
	ResidentBytes     int      `json:"resident_bytes"`
	PeakResidentBytes int      `json:"peak_resident_bytes"`
	HeadroomBytes     int      `json:"headroom_bytes"`
	EPCPressure       float64  `json:"epc_pressure"`
	PageSwaps         uint64   `json:"page_swaps"`
	Shards            []string `json:"shards"`
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
			PageSwaps:         st.PageSwaps,
		}
		if usable > 0 {
			r.EPCPressure = float64(st.ResidentBytes) / float64(usable)
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
