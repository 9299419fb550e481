package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mirror"
	"plinius/internal/obs"
)

// Model sharding (the serving answer to the Fig. 7 paging knee): a
// ShardGroup serves one model that exceeds the usable EPC by splitting
// it into contiguous layer ranges, each hosted in its own small shard
// enclave, and pipelining micro-batches through them — shard k
// processes batch i+1 while shard k+1 processes batch i, activations
// crossing between enclaves only in sealed form.
//
// The point is EPC residency. A monolithic replica of an over-EPC
// model keeps the whole parameter set resident, so the host is
// permanently over the paging knee and every restore and every staged
// batch pays the all-miss fault stream. A ShardGroup instead bounds
// what is resident: a shard holds only a small fixed overhead while
// idle ("parked") and reserves its layer range — parameters plus
// activation buffers — only while processing a batch ("hot"); a parked
// shard's parameters are re-restored on demand from the pinned
// published snapshot in PM, trading the fault storm for a sealed PM
// read and an in-enclave decrypt, exactly the byte-addressable-PM
// bargain the paper builds on. The pipeline admits only as many
// concurrent batches as hot shards fit the host's EPC headroom, so the
// host stays under the knee and serving pays (near) zero faults where
// the monolithic replica pays all-miss.
//
// When the whole plan fits the headroom the group runs resident: every
// shard restores once and stays hot, nothing is re-read per batch, and
// a single-shard plan is exactly the Replica path — same restore, same
// forward, bit-identical classes.

// DefaultShardOverheadBytes is the EPC working set a parked shard
// enclave keeps resident (code, stack, sealing buffers). It is far
// smaller than a training enclave's overhead: a shard runs only a
// forward pass over a layer range.
const DefaultShardOverheadBytes = 1 << 20

// ShardGroup errors.
var (
	ErrShardGroupClosed = errors.New("core: shard group is closed")
	ErrShardBatch       = errors.New("core: batch exceeds the shard plan's micro-batch size")
)

// Handoff is the seam between adjacent pipeline stages that the
// multi-host serving fabric (internal/fleet) plugs into: when two
// stages of one pipeline live on different hosts, the sealed
// activations crossing between them travel an attested inter-host
// channel instead of a same-machine buffer pass. Bind is called once
// per adjacent (from, to) stage pair while the group is built — the
// implementation attests both endpoint enclaves and provisions the
// channel there — and Carry once per micro-batch crossing that
// boundary, with the sealed activation payload. A Carry error fails
// the batch (it still rides the pipeline to completion, like any
// stage error).
type Handoff interface {
	Bind(from, to int, src, dst *enclave.Enclave) error
	Carry(from, to int, sealed []byte) error
}

// ShardOptions parameterises NewShardGroup.
type ShardOptions struct {
	// Shards, when > 0, asks the planner for at most this many
	// contiguous layer-range shards. Zero lets MaxShardBytes (or the
	// host headroom) drive the split.
	Shards int
	// MaxShardBytes bounds one shard's hot working set (parameters +
	// activation buffers). Zero derives a bound from the serving
	// host's EPC headroom so a pipeline window of a few hot shards
	// stays under the paging knee.
	MaxShardBytes int
	// Batch is the micro-batch size the plan reserves activation
	// buffers for; ClassifyBatch rejects larger batches. Zero uses the
	// model's configured batch size.
	Batch int
	// Host places the shard enclaves; nil uses the framework's host.
	Host *enclave.Host
	// OverheadBytes is the parked per-shard-enclave working set
	// (default DefaultShardOverheadBytes).
	OverheadBytes int
	// Seed differentiates the shard enclaves' RNGs.
	Seed int64
	// DisablePrefetch turns off double-buffered restores: in streaming
	// mode, parked shards then re-restore their range only on the
	// compute path (a pipeline stall per batch per shard), the pre-
	// prefetch behaviour. For benchmarking the prefetch win; leave
	// false in production.
	DisablePrefetch bool
	// Metrics is the registry the group's per-shard counters register
	// into (shard_restores_total{shard=...} and friends). Nil gives the
	// group a private registry, so concurrently built groups — every
	// test — never share series; the serving layer passes its server
	// registry so shard series surface on /metrics.
	Metrics *obs.Registry
	// Plan, when non-empty, is an explicit contiguous layer-range cover
	// to shard by, bypassing the planner (the fleet placement planner
	// hands groups their bin-packed ranges). It must cover every layer
	// exactly once, in order.
	Plan []darknet.ShardRange
	// Hosts, when non-empty, places shard i's enclave on Hosts[i] — the
	// multi-host pipeline. Its length must equal the plan's; nil
	// entries fall back to Host. Residency is then judged per host:
	// each host's EPC budget covers only the shards placed on it.
	Hosts []*enclave.Host
	// Handoff, when non-nil, carries sealed activations between
	// adjacent stages (see the Handoff interface).
	Handoff Handoff
	// Labels is appended to every per-shard metric series. The fleet
	// layer labels each replica group (group=g) so groups sharing one
	// registry keep distinct series.
	Labels []obs.Label
}

// shard is one pipeline stage: an enclave owning one contiguous layer
// range of the model.
type shard struct {
	idx  int
	encl *enclave.Enclave
	eng  *engine.Engine
	net  *darknet.Network
	rng  darknet.ShardRange

	// nodeFrom is the index of the shard's first layer node in the
	// persistent snapshot (what MirrorInRange restores from).
	nodeFrom int
	// footprint is the hot working set: parameters + activations.
	footprint int
	model     *mirror.Model

	// mu guards the residency state below: the compute path and the
	// background prefetcher both drive restores.
	mu  sync.Mutex
	hot bool
	// restoring is non-nil while a restore is in flight; it is closed
	// when the restore finishes. Waiters re-check hot afterwards: a
	// failed restore leaves hot false and the waiter retries the
	// restore itself, so failures propagate through the retry, not
	// through shared error state.
	restoring chan struct{}

	// Per-shard pipeline counters in the group's registry.
	mRestores      *obs.Counter
	mStalls        *obs.Counter
	mPrefetchWaits *obs.Counter
	mPrefetched    *obs.Counter

	// Pre-built span stage names ("restore/3", ...), so the traced hot
	// path does no string building.
	spanWait, spanRestore, spanOpen, spanCompute, spanSeal string
}

// shardJob is one micro-batch travelling the pipeline.
type shardJob struct {
	n       int
	plain   []float32 // stage-0 input (caller-owned, valid until done)
	sealed  []byte    // sealed activations between stages
	classes []int
	err     error
	done    chan *shardJob

	// tr, when non-nil, accumulates per-stage spans for the request(s)
	// riding this batch; handoff is stamped at every stage boundary so
	// inter-stage queueing shows up as wait/<k> spans.
	tr      *obs.Trace
	handoff time.Time
}

// ShardGroup is a pipelined pool of shard enclaves serving one model.
// ClassifyBatch is safe for concurrent use; concurrent batches pipeline
// through the stages.
type ShardGroup struct {
	f         *Framework
	host      *enclave.Host
	batch     int
	inputSize int
	overhead  int
	streaming bool
	window    int
	shards    []*shard
	stages    []chan *shardJob
	slots     chan struct{} // in-flight window tokens
	wg        sync.WaitGroup

	submitMu sync.Mutex // serializes intake; held across quiesce for control ops
	closed   bool

	mu      sync.Mutex // guards version, iter, pin
	pin     *mirror.Pin
	version uint64
	iter    int

	// reg holds the group's per-shard restore/stall/prefetch counters
	// (see ShardOptions.Metrics); the compute path and the prefetcher
	// both bump them, and Report sums across shards.
	reg *obs.Registry

	// handoff, when non-nil, carries sealed activations across stage
	// boundaries (ShardOptions.Handoff — the fleet's attested
	// inter-host channels).
	handoff Handoff

	// Double-buffered restore: while shard k computes a batch, a
	// background goroutine prefetches shard k+1's range so the batch
	// does not stall on the restore when it arrives. The prefetcher is
	// headroom-gated — it reserves the range only when the host has
	// spare usable EPC, so the residency bound (window hot shards) is
	// never exceeded and the zero-fault regime is preserved.
	noPrefetch  bool
	prefetchMu  sync.Mutex // guards prefetchOff and WaitGroup adds
	prefetchOff bool       // true while quiesced or closed
	prefetchWG  sync.WaitGroup
}

// NewShardGroup splits the framework's model into contiguous layer
// ranges and builds one shard enclave per range on opts.Host (the
// framework's host by default): each shard is attested and provisioned
// with the data key over its own channel, and restores only its range
// from the latest published snapshot (publishing the current model
// first if nothing is published). The plan's layer ranges are recorded
// as a shard manifest alongside the publication slots, durably; auto
// planning reads it back, so a group re-created after a crash restores
// the same split.
func (f *Framework) NewShardGroup(opts ShardOptions) (*ShardGroup, error) {
	if f.Crashed() {
		return nil, ErrCrashedDown
	}
	latest, err := f.LatestPublished()
	if err != nil {
		return nil, err
	}
	if latest == 0 {
		if _, err := f.Publish(); err != nil {
			return nil, err
		}
	}
	host := opts.Host
	if host == nil {
		host = f.Host
	}
	overhead := opts.OverheadBytes
	if overhead <= 0 {
		overhead = DefaultShardOverheadBytes
	}
	batch := opts.Batch
	if batch <= 0 {
		f.modelMu.Lock()
		if f.Net != nil {
			batch = f.Net.Config.Batch
		}
		f.modelMu.Unlock()
	}
	if batch <= 0 {
		batch = 1
	}

	// One parsed copy serves every shard: the ranges are disjoint, so
	// each shard's layers (and their buffers) are private to its
	// enclave. Weights stay zero until each range's first restore.
	full, err := darknet.ParseConfig(strings.NewReader(f.cfg.ModelConfig), nil)
	if err != nil {
		return nil, fmt.Errorf("core: shard model config: %w", err)
	}
	plan, err := f.planShards(full, opts, batch, host.Headroom())
	if err != nil {
		return nil, err
	}
	hosts := make([]*enclave.Host, len(plan))
	for i := range hosts {
		hosts[i] = host
	}
	if len(opts.Hosts) > 0 {
		if len(opts.Hosts) != len(plan) {
			return nil, fmt.Errorf("core: shard hosts: %d hosts for a %d-shard plan", len(opts.Hosts), len(plan))
		}
		for i, h := range opts.Hosts {
			if h != nil {
				hosts[i] = h
			}
		}
	}
	// Snapshot each distinct host's headroom before any shard enclave
	// reserves against it: the residency decision below compares the
	// plan against what the hosts had to offer.
	headrooms := make(map[*enclave.Host]int)
	for _, h := range hosts {
		if _, ok := headrooms[h]; !ok {
			headrooms[h] = h.Headroom()
		}
	}

	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &ShardGroup{
		f:          f,
		host:       host,
		batch:      batch,
		inputSize:  full.InputSize(),
		overhead:   overhead,
		noPrefetch: opts.DisablePrefetch,
		reg:        reg,
		handoff:    opts.Handoff,
	}
	fail := func(err error) (*ShardGroup, error) {
		for _, s := range g.shards {
			_ = s.encl.Close()
		}
		return nil, err
	}
	for i, r := range plan {
		encl := hosts[i].NewEnclave(enclave.WithSeed(opts.Seed+int64(i)+1), enclave.WithName("shard"))
		k := strconv.Itoa(i)
		labels := append([]obs.Label{{Key: "shard", Value: k}}, opts.Labels...)
		g.shards = append(g.shards, &shard{ // tracked for cleanup
			idx:            i,
			encl:           encl,
			mRestores:      reg.Counter("shard_restores_total", "Layer-range restores from PM, by shard.", labels...),
			mStalls:        reg.Counter("shard_stage_stall_total", "Batches that paid a full range restore on the compute path, by shard.", labels...),
			mPrefetchWaits: reg.Counter("shard_prefetch_waits_total", "Batches that waited out the remainder of an in-flight prefetch, by shard.", labels...),
			mPrefetched:    reg.Counter("shard_prefetched_restores_total", "Restores completed by the background prefetcher, by shard.", labels...),
			spanWait:       "wait/" + k,
			spanRestore:    "restore/" + k,
			spanOpen:       "open/" + k,
			spanCompute:    "compute/" + k,
			spanSeal:       "seal/" + k,
		})
		key, err := f.provisionReplicaKey(encl)
		if err != nil {
			return fail(fmt.Errorf("core: shard %d: %w", i, err))
		}
		eng, err := engine.New(key, engine.WithEnclave(encl))
		if err != nil {
			return fail(fmt.Errorf("core: shard %d engine: %w", i, err))
		}
		sub, err := full.Shard(r)
		if err != nil {
			return fail(fmt.Errorf("core: shard %d: %w", i, err))
		}
		footprint, err := full.ShardFootprint(r, batch)
		if err != nil {
			return fail(fmt.Errorf("core: shard %d: %w", i, err))
		}
		if err := encl.Ecall(func() error { return encl.Reserve(overhead) }); err != nil {
			return fail(fmt.Errorf("core: shard %d reserve: %w", i, err))
		}
		s := g.shards[i]
		s.eng, s.net, s.rng = eng, sub, r
		s.nodeFrom = full.ParamLayersBefore(r.From)
		s.footprint = footprint
	}

	// Bind the hand-off seam once per adjacent stage pair, with the
	// enclaves built: a fleet hand-off attests both endpoints and
	// provisions each cross-host channel here, before any batch flows.
	if g.handoff != nil {
		for i := 0; i+1 < len(g.shards); i++ {
			if err := g.handoff.Bind(i, i+1, g.shards[i].encl, g.shards[i+1].encl); err != nil {
				return fail(fmt.Errorf("core: shard hand-off %d->%d: %w", i, i+1, err))
			}
		}
	}

	// Residency mode, judged per host: the whole plan resident when
	// every host can hold its placed shards within what it had to
	// offer, else stream ranges from PM with a pipeline window sized so
	// each host's hot set stays within its budget (the window is the
	// most constrained host's). With double-buffered restore each
	// in-flight batch may transiently hold TWO ranges — its stage hot
	// while the next stage prefetches — so the window halves and the
	// freed budget pays for the overlap; that keeps the residency bound
	// exact (window x per-batch demand <= budget) and the zero-fault
	// regime intact. A window of at least 1 always serves — an
	// oversized single shard overcommits its host while hot and pays
	// (bounded) pressure, mirroring the one-replica floor of
	// WorkersAuto. A single-host plan reduces to the pre-fleet
	// arithmetic exactly.
	type hostDemand struct{ total, maxFP, count int }
	demand := make(map[*enclave.Host]*hostDemand)
	for i, s := range g.shards {
		d := demand[hosts[i]]
		if d == nil {
			d = &hostDemand{}
			demand[hosts[i]] = d
		}
		d.total += s.footprint
		d.count++
		if s.footprint > d.maxFP {
			d.maxFP = s.footprint
		}
	}
	g.window = len(plan)
	for h, d := range demand {
		budget := headrooms[h] - overhead*d.count
		if d.total <= budget {
			continue
		}
		g.streaming = true
		perBatch := d.maxFP
		if !g.noPrefetch {
			perBatch = 2 * d.maxFP
		}
		w := 0
		if perBatch > 0 {
			w = budget / perBatch
		}
		if w < 1 {
			w = 1
		}
		if w < g.window {
			g.window = w
		}
	}
	g.slots = make(chan struct{}, g.window)

	// Pin the served version, open each shard's snapshot handle, and
	// record the manifest.
	pin, err := f.PinPublished(0)
	if err != nil {
		return fail(fmt.Errorf("core: shard pin: %w", err))
	}
	models, iter, err := g.openModels(pin)
	if err != nil {
		pin.Release()
		return fail(fmt.Errorf("core: shard snapshot: %w", err))
	}
	for i, s := range g.shards {
		s.model = models[i]
	}
	g.pin, g.version, g.iter = pin, pin.Version(), iter
	if err := f.recordShardManifest(g.manifest()); err != nil {
		pin.Release()
		return fail(fmt.Errorf("core: shard manifest: %w", err))
	}
	if !g.streaming {
		for _, s := range g.shards {
			if err := g.ensureHot(s); err != nil {
				pin.Release()
				return fail(fmt.Errorf("core: shard %d restore: %w", s.idx, err))
			}
		}
	}

	g.stages = make([]chan *shardJob, len(g.shards))
	for i := range g.stages {
		g.stages[i] = make(chan *shardJob, 1)
	}
	g.wg.Add(len(g.shards))
	for _, s := range g.shards {
		go g.run(s)
	}
	return g, nil
}

// planShards picks the contiguous layer-range plan for the options.
// Explicit options (a shard count or a byte bound) always replan; auto
// planning first honours a shard manifest persisted by a previous
// group, so a group re-created after a crash or restart restores
// exactly the split whose manifest is on record.
func (f *Framework) planShards(full *darknet.Network, opts ShardOptions, batch, headroom int) ([]darknet.ShardRange, error) {
	switch {
	case len(opts.Plan) > 0:
		if err := validateShardPlan(opts.Plan, len(full.Layers)); err != nil {
			return nil, err
		}
		return opts.Plan, nil
	case opts.MaxShardBytes > 0:
		return full.PlanShards(opts.MaxShardBytes, batch)
	case opts.Shards > 0:
		return full.PlanShardCount(opts.Shards, batch)
	default:
		if plan := f.persistedShardPlan(len(full.Layers)); plan != nil {
			return plan, nil
		}
		// Headroom-driven: aim for a pipeline window of a few hot
		// shards inside the budget. A host with no headroom still gets
		// a best-effort per-layer split (bound 1 packs one layer per
		// shard), the finest granularity available.
		bound := headroom / 4
		if bound < 1 {
			bound = 1
		}
		return full.PlanShards(bound, batch)
	}
}

// validateShardPlan checks an explicit plan is an in-order contiguous
// cover of the model's layers — anything else would drop or duplicate
// a layer range.
func validateShardPlan(plan []darknet.ShardRange, numLayers int) error {
	next := 0
	for _, r := range plan {
		if r.From != next || r.To <= r.From || r.To > numLayers {
			return fmt.Errorf("core: explicit shard plan %v is not a contiguous cover of %d layers", plan, numLayers)
		}
		next = r.To
	}
	if next != numLayers {
		return fmt.Errorf("core: explicit shard plan %v is not a contiguous cover of %d layers", plan, numLayers)
	}
	return nil
}

// persistedShardPlan reads the shard manifest back as a plan, nil when
// none is recorded or the recorded split no longer matches the model
// (not a contiguous cover of its layers) — a shape change or a corrupt
// table simply replans and re-records.
func (f *Framework) persistedShardPlan(numLayers int) []darknet.ShardRange {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return nil
	}
	entries, err := f.pub.ShardManifest()
	if err != nil || len(entries) == 0 {
		return nil
	}
	plan := make([]darknet.ShardRange, len(entries))
	next := 0
	for i, e := range entries {
		if e.From != next || e.To <= e.From || e.To > numLayers {
			return nil
		}
		plan[i] = darknet.ShardRange{From: e.From, To: e.To}
		next = e.To
	}
	if next != numLayers {
		return nil
	}
	return plan
}

// manifest returns the plan's layer ranges.
func (g *ShardGroup) manifest() []mirror.ShardManifestEntry {
	entries := make([]mirror.ShardManifestEntry, len(g.shards))
	for i, s := range g.shards {
		entries[i] = mirror.ShardManifestEntry{From: s.rng.From, To: s.rng.To}
	}
	return entries
}

// recordShardManifest persists the shard plan alongside the
// publication slots, skipping the write when the recorded plan already
// matches.
func (f *Framework) recordShardManifest(entries []mirror.ShardManifestEntry) error {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return err
	}
	cur, err := f.pub.ShardManifest()
	if err == nil && len(cur) == len(entries) {
		same := true
		for i := range cur {
			if cur[i] != entries[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return f.pub.RecordShardManifest(entries)
}

// openModels opens one handle per shard on the pinned snapshot and
// returns them with the snapshot's iteration. The handles are NOT
// installed on the shards — callers swap them in only once every
// fallible step of their control operation has succeeded, so a failed
// Refresh/Rotate never leaves a shard reading an unpinned slot.
func (g *ShardGroup) openModels(pin *mirror.Pin) ([]*mirror.Model, int, error) {
	g.f.pmMu.Lock()
	defer g.f.pmMu.Unlock()
	models := make([]*mirror.Model, len(g.shards))
	for i, s := range g.shards {
		m, err := pin.Open(s.eng, mirror.WithEnclave(s.encl))
		if err != nil {
			return nil, 0, err
		}
		models[i] = m
	}
	iter, err := models[0].Iteration()
	if err != nil {
		return nil, 0, err
	}
	return models, iter, nil
}

// restoreShard restores one shard's layer range from the given
// snapshot handle inside its enclave.
func (g *ShardGroup) restoreShard(s *shard, m *mirror.Model) error {
	return s.encl.Ecall(func() error {
		g.f.pmMu.Lock()
		defer g.f.pmMu.Unlock()
		_, err := m.MirrorInRange(s.net, s.nodeFrom)
		return err
	})
}

// restoreRange brings a parked shard's parameters into its enclave:
// reserve the range on the host (unless the caller already did) and
// restore it from the pinned snapshot. Free while the host is under
// the knee: the restore is a sealed PM read plus in-enclave decrypt.
// Callers must hold the shard's restoring slot (see ensureHot /
// tryPrefetch); s.mu must NOT be held.
func (g *ShardGroup) restoreRange(s *shard, reserved bool) error {
	if !reserved {
		if err := s.encl.Reserve(s.footprint); err != nil {
			return err
		}
	}
	g.f.pmMu.Lock()
	_, err := s.model.MirrorInRange(s.net, s.nodeFrom)
	g.f.pmMu.Unlock()
	if err != nil {
		_ = s.encl.Free(s.footprint)
		return err
	}
	s.mRestores.Inc()
	return nil
}

// finishRestore publishes a restore's outcome and wakes waiters.
func (s *shard) finishRestore(err error) {
	s.mu.Lock()
	if err == nil {
		s.hot = true
	}
	ch := s.restoring
	s.restoring = nil
	s.mu.Unlock()
	close(ch)
}

// ensureHot makes the shard's range resident for the compute path,
// waiting on an in-flight prefetch or — when none is running — doing
// the restore synchronously. A synchronous restore puts the full
// restore latency on the critical path (a pipeline stall, counted in
// ShardStalls); waiting out a prefetch costs only the restore's
// unfinished remainder (counted in ShardPrefetchWaits).
func (g *ShardGroup) ensureHot(s *shard) error {
	waited := false
	s.mu.Lock()
	for {
		if s.hot {
			s.mu.Unlock()
			return nil
		}
		ch := s.restoring
		if ch == nil {
			break
		}
		if !waited {
			waited = true
			s.mPrefetchWaits.Inc()
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
		// Loop: on success hot is set; on failure we retry the restore
		// ourselves below.
	}
	s.restoring = make(chan struct{})
	s.mu.Unlock()
	if !waited && g.streaming {
		s.mStalls.Inc()
	}
	err := g.restoreRange(s, false)
	s.finishRestore(err)
	return err
}

// tryPrefetch starts a background restore of a parked shard so the
// batch now computing one stage upstream does not stall on it. The
// prefetch reserves the range up front and only when the host has
// headroom for it — residency bounds hold, and a host already at its
// budget simply skips the prefetch (the compute path restores as
// before).
func (g *ShardGroup) tryPrefetch(s *shard) {
	if g.noPrefetch || !g.streaming {
		return
	}
	g.prefetchMu.Lock()
	if g.prefetchOff {
		g.prefetchMu.Unlock()
		return
	}
	s.mu.Lock()
	if s.hot || s.restoring != nil {
		s.mu.Unlock()
		g.prefetchMu.Unlock()
		return
	}
	// Charge the prefetch against the shard's own host headroom
	// atomically with the decision: Reserve here, before the restore
	// goroutine runs, so concurrent prefetchers cannot double-claim
	// the same budget. (The shard's host, not the group's primary —
	// a multi-host pipeline gates each prefetch on the machine that
	// would hold the range.)
	if s.encl.Host().Headroom() < s.footprint || s.encl.Reserve(s.footprint) != nil {
		s.mu.Unlock()
		g.prefetchMu.Unlock()
		return
	}
	s.restoring = make(chan struct{})
	s.mu.Unlock()
	g.prefetchWG.Add(1)
	g.prefetchMu.Unlock()
	go func() {
		defer g.prefetchWG.Done()
		err := s.encl.Ecall(func() error { return g.restoreRange(s, true) })
		if err == nil {
			s.mPrefetched.Inc()
		} else if errors.Is(err, enclave.ErrHostDown) {
			// The Ecall was refused at the boundary, so restoreRange
			// never ran and never freed the budget reserved above.
			// Return it here or a killed-then-rejoined host would leak
			// the phantom reservation forever.
			_ = s.encl.Free(s.footprint)
		}
		s.finishRestore(err)
	}()
}

// park returns the shard's range to the host budget; the parameters
// must be re-restored from PM before the next batch.
func (g *ShardGroup) park(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hot {
		return
	}
	_ = s.encl.Free(s.footprint)
	s.hot = false
}

// parkSettled waits out any in-flight restore on s, then parks it —
// the errored-job cleanup, where no batch is left to consume (and
// later park) a range that may have been prefetched for the job.
func (g *ShardGroup) parkSettled(s *shard) {
	for {
		s.mu.Lock()
		ch := s.restoring
		if ch == nil {
			if s.hot {
				_ = s.encl.Free(s.footprint)
				s.hot = false
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		<-ch
	}
}

// run is one shard's stage loop: restore the range if parked, open the
// incoming sealed activations (or stage the batch images at stage 0),
// forward through the range, seal the result for the next shard — or
// classify at the last — then park in streaming mode so the next stage
// window fits the budget. Errors skip processing but ride the job to
// completion so ordering and delivery hold.
//
// Double-buffering: the moment a job lands on this stage, the next
// stage's range starts restoring in the background, so by the time the
// job has been computed and sealed the downstream shard is (ideally)
// already hot — restore overlaps compute instead of stalling the
// pipeline between every pair of stages.
func (g *ShardGroup) run(s *shard) {
	defer g.wg.Done()
	// Label the stage goroutine so CPU profiles attribute shard compute
	// to its pipeline stage.
	pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(s.idx)), func(context.Context) {
		g.runStage(s)
	})
}

// runStage is run's stage loop body.
func (g *ShardGroup) runStage(s *shard) {
	last := s.idx == len(g.shards)-1
	if !last {
		defer close(g.stages[s.idx+1])
	}
	for job := range g.stages[s.idx] {
		job.tr.Add(s.spanWait, time.Since(job.handoff))
		if job.err == nil {
			job.err = g.process(s, job, last)
			// The sealed activations leave this stage: on a multi-host
			// pipeline they cross the fleet's attested inter-host
			// channel before the downstream stage can open them.
			if job.err == nil && !last && g.handoff != nil {
				if err := g.handoff.Carry(s.idx, s.idx+1, job.sealed); err != nil {
					job.err = fmt.Errorf("core: shard %d->%d hand-off: %w", s.idx, s.idx+1, err)
				}
			}
		} else if g.streaming {
			// The job errored upstream, possibly after prefetching this
			// stage on its behalf; nothing will process (and park) here,
			// so return any prefetched range to the budget instead of
			// leaking it hot against the host headroom. Waits out an
			// in-flight prefetch first — parking mid-restore would
			// no-op and orphan the reservation when the restore lands.
			g.parkSettled(s)
		}
		job.handoff = time.Now()
		if last {
			job.done <- job
		} else {
			g.stages[s.idx+1] <- job
		}
	}
}

// process runs one micro-batch through one shard inside its enclave,
// recording per-stage spans (restore, open, compute, seal) on the
// job's trace so slow requests attribute their time.
func (g *ShardGroup) process(s *shard, job *shardJob, last bool) error {
	return s.encl.Ecall(func() error {
		restoreStart := time.Now()
		if err := g.ensureHot(s); err != nil {
			return fmt.Errorf("core: shard %d restore: %w", s.idx, err)
		}
		job.tr.Add(s.spanRestore, time.Since(restoreStart))
		if g.streaming {
			defer g.park(s)
		}
		// Double-buffer: with this stage hot (its reservation charged,
		// so the headroom gate sees the true residual budget), start
		// restoring the next stage's range in the background — the
		// restore overlaps this stage's compute instead of stalling the
		// batch when it arrives downstream.
		if !last {
			g.tryPrefetch(g.shards[s.idx+1])
		}
		var in []float32
		if s.idx == 0 {
			s.encl.Touch(4 * len(job.plain))
			in = job.plain
		} else {
			openStart := time.Now()
			s.encl.CopyAcross(len(job.sealed))
			var err error
			in, err = s.eng.OpenFloats(job.sealed)
			job.tr.Add(s.spanOpen, time.Since(openStart))
			if err != nil {
				return fmt.Errorf("core: shard %d activations: %w", s.idx, err)
			}
			job.sealed = nil
		}
		computeStart := time.Now()
		if last {
			classes, err := s.net.ClassifyBatch(in, job.n)
			job.tr.Add(s.spanCompute, time.Since(computeStart))
			if err != nil {
				return fmt.Errorf("core: shard %d: %w", s.idx, err)
			}
			job.classes = classes
			return nil
		}
		out, err := s.net.Forward(in, job.n, false)
		job.tr.Add(s.spanCompute, time.Since(computeStart))
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", s.idx, err)
		}
		sealStart := time.Now()
		sealed, err := s.eng.SealFloats(out)
		job.tr.Add(s.spanSeal, time.Since(sealStart))
		if err != nil {
			return fmt.Errorf("core: shard %d seal: %w", s.idx, err)
		}
		job.sealed = sealed
		return nil
	})
}

// ClassifyBatch pipelines the images (laid out contiguously, at most
// the plan's micro-batch size) through the shard stages and returns
// one class per image. Safe for concurrent use; concurrent calls keep
// the pipeline full, up to the residency window. The images slice must
// stay unmodified until the call returns.
func (g *ShardGroup) ClassifyBatch(images []float32) ([]int, error) {
	return g.ClassifyBatchCtx(context.Background(), images)
}

// ClassifyBatchCtx is ClassifyBatch with a context: when ctx carries an
// obs.Trace the batch records per-stage spans (window admission wait,
// then wait/restore/open/compute/seal per shard) onto it. The context
// does not cancel an admitted batch — every accepted job rides the
// pipeline to completion so ordering and delivery hold.
func (g *ShardGroup) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	if len(images) == 0 || len(images)%g.inputSize != 0 {
		return nil, fmt.Errorf("core: shard classify: %d floats is not a positive multiple of the %d-float input", len(images), g.inputSize)
	}
	n := len(images) / g.inputSize
	if n > g.batch {
		return nil, fmt.Errorf("%w: %d > %d", ErrShardBatch, n, g.batch)
	}
	job := &shardJob{n: n, plain: images, tr: obs.TraceFrom(ctx), done: make(chan *shardJob, 1)}
	admit := time.Now()
	g.submitMu.Lock()
	if g.closed {
		g.submitMu.Unlock()
		return nil, ErrShardGroupClosed
	}
	g.slots <- struct{}{}
	job.tr.Add("window", time.Since(admit))
	job.handoff = time.Now()
	g.stages[0] <- job
	g.submitMu.Unlock()
	<-job.done
	<-g.slots
	if job.err != nil {
		return nil, job.err
	}
	return job.classes, nil
}

// quiesce waits until no batch is in flight by claiming every window
// token, then pauses the prefetcher and waits out any in-flight
// background restore — control operations must not race a prefetch
// reading the snapshot handles they are about to swap. Callers hold
// submitMu, so no new batch (and hence no new prefetch) can slip in.
func (g *ShardGroup) quiesce() {
	for i := 0; i < g.window; i++ {
		g.slots <- struct{}{}
	}
	g.prefetchMu.Lock()
	g.prefetchOff = true
	g.prefetchMu.Unlock()
	g.prefetchWG.Wait()
}

func (g *ShardGroup) resume() {
	g.prefetchMu.Lock()
	g.prefetchOff = false
	g.prefetchMu.Unlock()
	for i := 0; i < g.window; i++ {
		<-g.slots
	}
}

// Refresh rolls the group to the latest published version: the
// pipeline is quiesced (queued callers wait, none fail), every shard
// re-pins and — in resident mode — restores its range, and the old pin
// is released. Unlike a replica pool, the shards of one model must
// change version together: a half-refreshed pipeline would mix weights
// from two versions inside one forward pass.
func (g *ShardGroup) Refresh() (int, error) {
	g.submitMu.Lock()
	defer g.submitMu.Unlock()
	if g.closed {
		return 0, ErrShardGroupClosed
	}
	g.quiesce()
	defer g.resume()
	return g.refreshLocked()
}

// refreshLocked does the re-pin + restore with the pipeline quiesced.
// Fallible steps are staged: the new snapshot handles are installed —
// and the old pin released — only after everything has succeeded, so a
// failed refresh leaves the group serving the old version coherently,
// never reading an unpinned slot. A partial resident-mode restore is
// rolled back from the still-pinned old snapshot.
func (g *ShardGroup) refreshLocked() (int, error) {
	pin, err := g.f.PinPublished(0)
	if err != nil {
		return 0, err
	}
	models, iter, err := g.openModels(pin)
	if err != nil {
		pin.Release()
		return 0, err
	}
	if err := g.f.recordShardManifest(g.manifest()); err != nil {
		pin.Release()
		return 0, err
	}
	if g.streaming {
		// Parked ranges restore lazily from the new pin; drop anything
		// still hot so no stale range survives the version flip.
		for _, s := range g.shards {
			g.park(s)
		}
	} else {
		for i, s := range g.shards {
			if err := g.restoreShard(s, models[i]); err != nil {
				// Roll the already-restored shards back to the old
				// (still pinned) snapshot so no forward pass can ever
				// mix weights from two versions.
				var rollbackErr error
				for j := 0; j < i; j++ {
					if rerr := g.restoreShard(g.shards[j], g.shards[j].model); rerr != nil && rollbackErr == nil {
						rollbackErr = rerr
					}
				}
				pin.Release()
				if rollbackErr != nil {
					return 0, fmt.Errorf("%w (rollback to the served version also failed: %v)", err, rollbackErr)
				}
				return 0, err
			}
		}
	}
	for i, s := range g.shards {
		s.model = models[i]
	}
	g.mu.Lock()
	old := g.pin
	g.pin, g.version, g.iter = pin, pin.Version(), iter
	g.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return iter, nil
}

// Rotate re-provisions the framework's current data key into every
// shard enclave over fresh attestation channels, rebuilds the engines,
// and refreshes to the latest published snapshot (which a preceding
// Framework.RotateKey published under the new key).
func (g *ShardGroup) Rotate() (int, error) {
	g.submitMu.Lock()
	defer g.submitMu.Unlock()
	if g.closed {
		return 0, ErrShardGroupClosed
	}
	g.quiesce()
	defer g.resume()
	// Stage the new-key engines and install them only once every shard
	// has provisioned: the stages of one pipeline must always share a
	// key, or the sealed activation hand-off between them breaks. A
	// mid-loop provisioning failure therefore leaves the group serving
	// coherently under the old key.
	engs := make([]*engine.Engine, len(g.shards))
	for i, s := range g.shards {
		key, err := g.f.provisionReplicaKey(s.encl)
		if err != nil {
			return 0, fmt.Errorf("core: shard %d rotate: %w", s.idx, err)
		}
		engs[i], err = engine.New(key, engine.WithEnclave(s.encl))
		if err != nil {
			return 0, fmt.Errorf("core: shard %d rotate engine: %w", s.idx, err)
		}
	}
	for i, s := range g.shards {
		s.eng = engs[i]
	}
	return g.refreshLocked()
}

// Close quiesces the pipeline (every accepted batch is answered),
// stops the stage goroutines and tears down the shard enclaves,
// returning their entire footprint to the host.
func (g *ShardGroup) Close() error {
	g.submitMu.Lock()
	defer g.submitMu.Unlock()
	if g.closed {
		return ErrShardGroupClosed
	}
	g.quiesce()
	g.closed = true
	close(g.stages[0])
	g.wg.Wait()
	var firstErr error
	for _, s := range g.shards {
		if err := s.encl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	g.mu.Lock()
	pin := g.pin
	g.pin = nil
	g.mu.Unlock()
	if pin != nil {
		pin.Release()
	}
	return firstErr
}

// Window returns how many batches may be in flight at once — in
// streaming mode, the number of hot shards the EPC budget admits.
func (g *ShardGroup) Window() int { return g.window }

// Plan returns a copy of the layer ranges, one per shard.
func (g *ShardGroup) Plan() []darknet.ShardRange {
	plan := make([]darknet.ShardRange, len(g.shards))
	for i, s := range g.shards {
		plan[i] = s.rng
	}
	return plan
}

// InputSize returns the flattened per-image input size.
func (g *ShardGroup) InputSize() int { return g.inputSize }

// Batch returns the plan's micro-batch bound.
func (g *ShardGroup) Batch() int { return g.batch }

// Version returns the published model version the group serves.
func (g *ShardGroup) Version() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version
}

// Iteration returns the training iteration of the served snapshot.
func (g *ShardGroup) Iteration() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.iter
}

// Report returns the pipeline's shape and its restore counters summed
// over the shards. In streaming mode restores are the price paid per
// batch per parked shard instead of the paging knee; with
// double-buffered restore most batches find their stage hot or
// mid-restore, so stalls stay near the per-batch stage-0 floor, and
// with DisablePrefetch they approach batches x shards.
func (g *ShardGroup) Report() BackendReport {
	r := BackendReport{Shards: len(g.shards), Streaming: g.streaming}
	for _, s := range g.shards {
		r.ShardRestores += uint64(s.mRestores.Value())
		r.ShardStalls += uint64(s.mStalls.Value())
		r.ShardPrefetchWaits += uint64(s.mPrefetchWaits.Value())
		r.ShardPrefetched += uint64(s.mPrefetched.Value())
	}
	return r
}

// Metrics returns the registry holding the group's per-shard counters.
func (g *ShardGroup) Metrics() *obs.Registry { return g.reg }

// ModelConfigText returns the framework's Darknet .cfg text — what the
// fleet placement planner parses to compute shard footprints without
// touching the enclave model.
func (f *Framework) ModelConfigText() string { return f.cfg.ModelConfig }

// PersistedShardPlan returns the durably recorded shard split when it
// is a contiguous cover of a numLayers-layer model, nil otherwise —
// the exported read the fleet layer uses to restore a recorded
// placement.
func (f *Framework) PersistedShardPlan(numLayers int) []darknet.ShardRange {
	return f.persistedShardPlan(numLayers)
}

// RecordPlacement persists a fleet placement manifest alongside the
// publication slots and shard manifest, skipping the write when the
// recorded placement already matches.
func (f *Framework) RecordPlacement(entries []mirror.PlacementEntry) error {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return err
	}
	cur, err := f.pub.Placement()
	if err == nil && len(cur) == len(entries) {
		same := true
		for i := range cur {
			if cur[i] != entries[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return f.pub.RecordPlacement(entries)
}

// PersistedPlacement reads the fleet placement manifest back, nil when
// none has been recorded.
func (f *Framework) PersistedPlacement() ([]mirror.PlacementEntry, error) {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return nil, err
	}
	return f.pub.Placement()
}
