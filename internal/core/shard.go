package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
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

// Serving enclaves. A ShardGroup serves one model from a chain of
// enclaves, each owning one contiguous layer range that it restores —
// sealed, from an immutable published snapshot in PM — exactly like
// crash recovery (Algorithm 3, mirror_in). A serving replica is the
// one-range group: the whole model in one enclave. A model over the
// usable EPC (the Fig. 7 paging knee) splits into several ranges and
// micro-batches pipeline through them — stage k processes batch i+1
// while stage k+1 processes batch i, activations crossing between
// enclaves only in sealed form. No goroutine runs a stage: every caller
// walks its own batch through the stages, holding one at a time.
//
// The point of splitting is EPC residency. A monolithic replica of an
// over-EPC model keeps the whole parameter set resident, so the host is
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
// shard restores once and stays hot, and nothing is re-read per batch.
// A one-range plan runs resident whatever the headroom — streaming it
// would re-restore the whole model for every batch — so a replica too
// big for its host is the over-knee monolithic baseline that sharding
// is measured against.

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
// the batch.
type Handoff interface {
	Bind(from, to int, src, dst *enclave.Enclave) error
	Carry(from, to int, sealed []byte) error
}

// ShardOptions parameterises NewShardGroup.
type ShardOptions struct {
	// Shards, when > 0, asks the planner for at most this many
	// contiguous layer-range shards. Zero lets the host headroom drive
	// the split: each shard's hot working set (parameters + activation
	// buffers) is bounded so a pipeline window of a few hot shards
	// stays under the paging knee.
	Shards int
	// Batch is the micro-batch size the plan reserves activation
	// buffers for; ClassifyBatchCtx rejects larger batches. Zero uses the
	// model's configured batch size.
	Batch int
	// Host places the shard enclaves; nil uses the framework's host.
	Host *enclave.Host
	// OverheadBytes is the parked per-shard-enclave working set. Zero
	// defaults to DefaultShardOverheadBytes, or — for a one-range plan,
	// whose enclave holds the whole model as the training enclave does
	// — to the framework's TrainOverheadBytes.
	OverheadBytes int
	// Precision is the parameter precision served (default FP32). Int8
	// plans on the int8 footprints and restores each range of the
	// published snapshot's quantized variant, turning the framework's
	// quantized publication on. The serving layout records fp32 plans
	// only: an int8 group neither adopts nor records it, so it never
	// changes the split a later fp32 group restores.
	Precision darknet.Precision
	// Seed differentiates the shard enclaves' RNGs.
	Seed int64
	// Metrics is the registry the group's per-shard counters register
	// into (shard_restores_total{shard=...} and friends). Nil gives the
	// group a private registry, so concurrently built groups — every
	// test — never share series; the serving layer passes its server
	// registry so shard series surface on /metrics.
	Metrics *obs.Registry
	// Plan, when non-empty, is an explicit contiguous layer-range cover
	// to shard by, bypassing the planner (the fleet placement planner
	// hands groups their bin-packed ranges). It must cover every layer
	// exactly once, in order. An explicit plan is its giver's to
	// record: the group leaves the serving layout alone.
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

// restorer installs one stage's layer range from a handle on a pinned
// snapshot into the stage's network and returns the snapshot's
// iteration.
type restorer func(net *darknet.Network) (int, error)

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
	// restore reads the range from the pinned snapshot the group serves.
	restore restorer

	// busy is held by the batch running this stage, from its restore
	// through the hand-off of its sealed activations downstream.
	busy sync.Mutex

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

// shardJob is one micro-batch on its way through the stages.
type shardJob struct {
	n       int
	plain   []float32 // stage-0 input (caller-owned)
	sealed  []byte    // sealed activations between stages
	classes []int

	// tr, when non-nil, accumulates per-stage spans for the request(s)
	// riding this batch; mark is when the last span ended (see lap).
	tr   *obs.Trace
	mark time.Time
}

// lap records the time since the last span ended as a span of stage
// and starts the next one, so a batch's spans tile its time in the
// group with no gaps — preemption anywhere, an enclave crossing or a
// hand-off included, lands in some span. Untraced batches skip it.
func (j *shardJob) lap(stage string) {
	if j.tr == nil {
		return
	}
	now := time.Now()
	j.tr.Add(stage, now.Sub(j.mark))
	j.mark = now
}

// ShardGroup is a pipelined chain of shard enclaves serving one model.
// ClassifyBatchCtx is safe for concurrent use; concurrent batches pipeline
// through the stages, up to Window at once.
type ShardGroup struct {
	f         *Framework
	batch     int
	inputSize int
	prec      darknet.Precision
	streaming bool
	window    int
	shards    []*shard
	slots     chan struct{} // in-flight window tokens

	// ownPlan marks a multi-range fp32 split the group planned itself,
	// the one kind it records as the serving layout.
	ownPlan bool

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
	prefetchMu  sync.Mutex // guards prefetchOff and WaitGroup adds
	prefetchOff bool       // true while quiesced or closed
	prefetchWG  sync.WaitGroup
}

// NewShardGroup splits the framework's model into contiguous layer
// ranges and builds one shard enclave per range on opts.Host (the
// framework's host by default): each shard is attested and provisioned
// with the data key over its own channel, and restores only its range
// from the latest published snapshot (publishing the current model
// first if nothing is published). Every shard enclave reserves its
// overhead plus its range's ShardFootprintAt. A multi-range fp32 split
// the group planned itself is recorded as the serving layout alongside
// the publication slots, durably; auto planning reads it back, so a
// group re-created after a crash restores the same split.
func (f *Framework) NewShardGroup(opts ShardOptions) (*ShardGroup, error) {
	if f.Crashed() {
		return nil, ErrCrashedDown
	}
	host := opts.Host
	if host == nil {
		host = f.Host
	}
	// One parsed copy serves every shard: the ranges are disjoint, so
	// each shard's layers (and their buffers) are private to its
	// enclave. Weights stay zero until each range's first restore.
	full, err := darknet.ParseConfig(strings.NewReader(f.cfg.ModelConfig), nil)
	if err != nil {
		return nil, fmt.Errorf("core: shard model config: %w", err)
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = max(full.Config.Batch, 1)
	}
	prec := opts.Precision
	if prec == darknet.Int8 {
		// Only the quantized parameters are ever resident, and the plan
		// packs their footprints: every planner sees the clone's int8
		// layers, which is PlanShardsAt(…, Int8) on the fp32 model.
		if full, err = darknet.QuantizeNetwork(full); err != nil {
			return nil, fmt.Errorf("core: quantize: %w", err)
		}
	}
	plan, err := f.planShards(full, opts, batch, host.Headroom())
	if err != nil {
		return nil, err
	}
	if err := f.ensurePublished(prec); err != nil {
		return nil, err
	}
	overhead := opts.OverheadBytes
	if overhead <= 0 {
		overhead = DefaultShardOverheadBytes
		if len(plan) == 1 {
			overhead = f.cfg.TrainOverheadBytes
		}
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
		f:         f,
		batch:     batch,
		inputSize: full.InputSize(),
		prec:      prec,
		ownPlan:   len(opts.Plan) == 0 && prec == darknet.FP32 && len(plan) > 1,
		reg:       reg,
		handoff:   opts.Handoff,
	}
	fail := func(err error) (*ShardGroup, error) {
		for _, s := range g.shards {
			_ = s.encl.Close()
		}
		return nil, err
	}
	role := "shard"
	if len(plan) == 1 {
		role = "replica"
	}
	for i, r := range plan {
		encl := hosts[i].NewEnclave(enclave.WithSeed(opts.Seed+int64(i)+1), enclave.WithName(role))
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
		key, err := f.provisionEnclaveKey(encl)
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
		footprint, err := full.ShardFootprintAt(r, batch, prec)
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
	// offer (or the plan is one range), else stream ranges from PM
	// with a pipeline window sized so each host's hot set stays within
	// its budget (the window is the most constrained host's). With
	// double-buffered restore each in-flight batch may transiently hold
	// TWO ranges — its stage hot while the next stage prefetches — so
	// the window halves and the freed budget pays for the overlap; that
	// keeps the residency bound exact (window x per-batch demand <=
	// budget) and the zero-fault regime intact. A window of at least 1
	// always serves — an oversized single shard overcommits its host
	// while hot and pays (bounded) pressure, mirroring the one-replica
	// floor of WorkersAuto. A single-host plan reduces to the pre-fleet
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
		if len(plan) == 1 || d.total <= budget {
			continue
		}
		g.streaming = true
		perBatch := 2 * d.maxFP // a hot range and its successor's prefetch
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
	// record the layout.
	pin, err := f.PinPublished(0)
	if err != nil {
		return fail(fmt.Errorf("core: shard pin: %w", err))
	}
	restores, iter, err := g.openModels(pin)
	if err != nil {
		pin.Release()
		return fail(fmt.Errorf("core: shard snapshot: %w", err))
	}
	for i, s := range g.shards {
		s.restore = restores[i]
	}
	g.pin, g.version, g.iter = pin, pin.Version(), iter
	if err := g.recordLayout(); err != nil {
		pin.Release()
		return fail(fmt.Errorf("core: serving layout: %w", err))
	}
	if !g.streaming {
		for _, s := range g.shards {
			if err := s.encl.Ecall(func() error { return g.ensureHot(s) }); err != nil {
				pin.Release()
				return fail(fmt.Errorf("core: shard %d restore: %w", s.idx, err))
			}
		}
	}
	return g, nil
}

// NewReplica builds a serving replica on the framework's host: a
// one-range ShardGroup, whose one enclave is attested, provisioned with
// the data key over the attestation channel (Fig. 5 steps 2-3), and
// restores the whole model from the latest published snapshot
// (publishing the current model first if nothing has been published
// yet). It serves batches up to the model's configured batch size;
// seed differentiates the replica's enclave RNG.
//
// On real SGX all co-located enclaves share one EPC, so every
// replica's working set counts against the same 93.5 MB and a pool
// sized past the budget pays the shared paging knee.
func (f *Framework) NewReplica(seed int64) (*ShardGroup, error) {
	return f.NewReplicaOn(f.Host, seed)
}

// NewReplicaOn is NewReplica with an explicit host for the replica
// enclave — the train-here-serve-there shape, where inference replicas
// run on a machine whose EPC the training enclave does not occupy. The
// model still travels only through PM, sealed.
func (f *Framework) NewReplicaOn(host *enclave.Host, seed int64) (*ShardGroup, error) {
	return f.NewShardGroup(ShardOptions{Shards: 1, Host: host, Seed: seed})
}

// ensurePublished makes sure the latest published version can be
// served at prec: it publishes the current model when nothing is
// published and, at Int8, turns quantized publication on (a sticky
// switch) and republishes a latest version that predates it.
func (f *Framework) ensurePublished(prec darknet.Precision) error {
	if prec == darknet.Int8 {
		f.SetPublishQuantized(true)
	}
	latest, err := f.LatestPublished()
	if err != nil {
		return err
	}
	switch {
	case latest == 0:
	case prec != darknet.Int8:
		return nil
	default:
		pin, err := f.PinPublished(0)
		if err != nil {
			return err
		}
		hasQuant := pin.HasQuant()
		pin.Release()
		if hasQuant {
			return nil
		}
		// Republishing overwrites the latest version with the enclave's
		// current weights; refuse when the enclave holds nothing (e.g. a
		// dataset-less restart serving an old publication) — superseding
		// a real snapshot with random weights would be worse than failing.
		if f.Iteration() == 0 {
			return fmt.Errorf("core: int8 serving: latest published version predates quantized publication and the enclave holds no trained model to republish: %w", mirror.ErrNoQuant)
		}
	}
	_, err = f.Publish()
	return err
}

// provisionEnclaveKey runs the Fig. 5 steps 2-3 flow against a serving
// enclave: attest it, have the owner verify the quote, wrap the
// framework's current data key for the attestation channel, and unwrap
// it inside the enclave. It returns the provisioned key as held by the
// enclave.
func (f *Framework) provisionEnclaveKey(encl *enclave.Enclave) ([]byte, error) {
	f.modelMu.Lock()
	dataKey := append([]byte(nil), f.key...)
	f.modelMu.Unlock()

	sess, quote, err := encl.BeginAttestation()
	if err != nil {
		return nil, fmt.Errorf("core: serving enclave attestation: %w", err)
	}
	owner, err := enclave.NewOwner(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: serving enclave owner: %w", err)
	}
	ownerChannel, err := owner.VerifyQuote(quote, enclave.PliniusMeasurement())
	if err != nil {
		return nil, fmt.Errorf("core: serving enclave quote: %w", err)
	}
	wrapped, err := engine.WrapKey(ownerChannel, dataKey, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: serving enclave wrap key: %w", err)
	}
	var key []byte
	err = encl.Ecall(func() error {
		ch, err := sess.CompleteAttestation(owner.PublicKey())
		if err != nil {
			return err
		}
		key, err = engine.UnwrapKey(ch, wrapped)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: serving enclave key provisioning: %w", err)
	}
	return key, nil
}

// planShards picks the contiguous layer-range plan for the options.
// An explicit plan or shard count always replans; fp32 auto planning
// first honours a multi-range split on record in the serving layout,
// so a group re-created after a crash or restart restores exactly the
// split recorded.
func (f *Framework) planShards(full *darknet.Network, opts ShardOptions, batch, headroom int) ([]darknet.ShardRange, error) {
	switch {
	case len(opts.Plan) > 0:
		if err := validateShardPlan(opts.Plan, len(full.Layers)); err != nil {
			return nil, err
		}
		return opts.Plan, nil
	case opts.Shards > 0:
		return full.PlanShardCount(opts.Shards, batch)
	default:
		if opts.Precision == darknet.FP32 {
			if plan := f.ServingLayout(len(full.Layers)).Plan; len(plan) > 1 {
				return plan, nil
			}
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

// validateShardPlan checks a plan — explicit or recorded — is an
// in-order contiguous cover of the model's layers: anything else would
// drop or duplicate a layer range.
func validateShardPlan(plan []darknet.ShardRange, numLayers int) error {
	next := 0
	for _, r := range plan {
		if r.From != next || r.To <= r.From || r.To > numLayers {
			return fmt.Errorf("core: shard plan %v is not a contiguous cover of %d layers", plan, numLayers)
		}
		next = r.To
	}
	if next != numLayers {
		return fmt.Errorf("core: shard plan %v is not a contiguous cover of %d layers", plan, numLayers)
	}
	return nil
}

// recordLayout records a split the group planned itself as the serving
// layout, with no hosts, unless the layout on record already holds
// that plan: a fleet's placement survives only alongside the plan it
// was placed for. A one-range plan splits nothing and an int8 plan
// packs int8 footprints, so neither is recorded — either would override
// the split a re-created auto-planned fp32 group restores — and an
// explicit plan is recorded by whoever gave it.
func (g *ShardGroup) recordLayout() error {
	if !g.ownPlan {
		return nil
	}
	f, plan := g.f, g.Plan()
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return err
	}
	if cur, err := f.pub.Layout(); err == nil && slices.Equal(cur.Plan, plan) {
		return nil
	}
	return f.pub.RecordLayout(mirror.Layout{Plan: plan})
}

// openModels opens one restore handle per shard on the pinned snapshot
// — its layer range of the fp32 snapshot, or at Int8 of its quantized
// variant — and returns them with the snapshot's iteration. The
// handles are NOT installed on the shards — callers swap them in only
// once every fallible step of their control operation has succeeded,
// so a failed Refresh/Rotate never leaves a shard reading an unpinned
// slot.
func (g *ShardGroup) openModels(pin *mirror.Pin) ([]restorer, int, error) {
	g.f.pmMu.Lock()
	defer g.f.pmMu.Unlock()
	restores := make([]restorer, len(g.shards))
	var iteration func() (int, error)
	for i, s := range g.shards {
		m, err := pin.Open(s.eng, g.prec, mirror.WithEnclave(s.encl))
		if err != nil {
			return nil, 0, err
		}
		from := s.nodeFrom
		restores[i] = func(net *darknet.Network) (int, error) { return m.MirrorInRange(net, from) }
		iteration = m.Iteration
	}
	iter, err := iteration()
	if err != nil {
		return nil, 0, err
	}
	return restores, iter, nil
}

// restoreShard restores one shard's layer range with the given handle
// inside its enclave.
func (g *ShardGroup) restoreShard(s *shard, restore restorer) error {
	return s.encl.Ecall(func() error {
		g.f.pmMu.Lock()
		defer g.f.pmMu.Unlock()
		_, err := restore(s.net)
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
	_, err := s.restore(s.net)
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
	if !g.streaming {
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
// the cleanup after a failed batch, which will not consume (and later
// park) a range prefetched on its behalf.
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

// step runs the batch through one stage: it waits until the batch
// ahead has left the stage, processes the batch there in one Ecall and
// — still holding the stage, so batches leave it in the order they ran
// it — carries the sealed activations on to the next stage.
//
// In streaming mode a failed batch goes no further, so the range this
// stage may have prefetched downstream on its behalf is returned to
// the budget here, under the next stage's lock so no batch is using
// it: the host's residency falls back to the parked level.
func (g *ShardGroup) step(s *shard, job *shardJob) error {
	last := s.idx == len(g.shards)-1
	s.busy.Lock()
	defer s.busy.Unlock()
	job.lap(s.spanWait)
	err := g.process(s, job, last)
	if err == nil && !last && g.handoff != nil {
		// The sealed activations leave this stage: on a multi-host
		// pipeline they cross the fleet's attested inter-host channel
		// before the downstream stage can open them.
		if err = g.handoff.Carry(s.idx, s.idx+1, job.sealed); err != nil {
			err = fmt.Errorf("core: shard %d->%d hand-off: %w", s.idx, s.idx+1, err)
		}
	}
	if err != nil && !last && g.streaming {
		next := g.shards[s.idx+1]
		next.busy.Lock()
		g.parkSettled(next)
		next.busy.Unlock()
	}
	return err
}

// process runs one micro-batch through one shard inside its enclave:
// restore the range if parked, open the incoming sealed activations
// (or stage the batch images at stage 0), forward through the range,
// seal the result for the next shard — or classify at the last — then
// park in streaming mode so the next stage window fits the budget. It
// records per-stage spans (restore — the enclave crossing included —
// open, compute, seal) on the job's trace so slow requests attribute
// their time.
//
// Double-buffering: with this stage hot, the next stage's range starts
// restoring in the background, so by the time the job has been
// computed and sealed the downstream shard is (ideally) already hot —
// restore overlaps compute instead of stalling the pipeline between
// every pair of stages.
func (g *ShardGroup) process(s *shard, job *shardJob, last bool) error {
	return s.encl.Ecall(func() error {
		if err := g.ensureHot(s); err != nil {
			return fmt.Errorf("core: shard %d restore: %w", s.idx, err)
		}
		job.lap(s.spanRestore)
		if g.streaming {
			defer g.park(s)
		}
		// Double-buffer: with this stage hot (its reservation charged,
		// so the headroom gate sees the true residual budget), start
		// restoring the next stage's range in the background.
		if !last {
			g.tryPrefetch(g.shards[s.idx+1])
		}
		var in []float32
		if s.idx == 0 {
			s.encl.Touch(4 * len(job.plain))
			in = job.plain
		} else {
			s.encl.CopyAcross(len(job.sealed))
			var err error
			in, err = s.eng.OpenFloats(job.sealed)
			job.lap(s.spanOpen)
			if err != nil {
				return fmt.Errorf("core: shard %d activations: %w", s.idx, err)
			}
			job.sealed = nil
		}
		if last {
			classes, err := s.net.ClassifyBatch(in, job.n)
			job.lap(s.spanCompute)
			if err != nil {
				return fmt.Errorf("core: shard %d: %w", s.idx, err)
			}
			job.classes = classes
			return nil
		}
		out, err := s.net.Forward(in, job.n, false)
		job.lap(s.spanCompute)
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", s.idx, err)
		}
		sealed, err := s.eng.SealFloats(out)
		job.lap(s.spanSeal)
		if err != nil {
			return fmt.Errorf("core: shard %d seal: %w", s.idx, err)
		}
		job.sealed = sealed
		return nil
	})
}

// ClassifyBatchCtx runs the images (laid out contiguously, at most the
// plan's micro-batch size) through the shard stages and returns one
// class per image. Safe for concurrent use; concurrent calls keep the
// pipeline full, up to the residency window. The images slice must
// stay unmodified until the call returns. When ctx carries an
// obs.Trace the batch records spans that tile its time in the group
// (window admission wait, then wait/restore/open/compute/seal per
// shard, the wait covering the hand-off from upstream) onto it. The
// context does not cancel an admitted batch. The calling goroutine
// walks the batch through every stage itself (see step), so a
// one-range group runs it entirely on the caller.
func (g *ShardGroup) ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error) {
	if len(images) == 0 || len(images)%g.inputSize != 0 {
		return nil, fmt.Errorf("core: shard classify: %d floats is not a positive multiple of the %d-float input", len(images), g.inputSize)
	}
	n := len(images) / g.inputSize
	if n > g.batch {
		return nil, fmt.Errorf("%w: %d > %d", ErrShardBatch, n, g.batch)
	}
	job := shardJob{n: n, plain: images, tr: obs.TraceFrom(ctx), mark: time.Now()}
	g.submitMu.Lock()
	if g.closed {
		g.submitMu.Unlock()
		return nil, ErrShardGroupClosed
	}
	g.slots <- struct{}{}
	g.submitMu.Unlock()
	defer func() { <-g.slots }()
	job.lap("window")
	for _, s := range g.shards {
		if err := g.step(s, &job); err != nil {
			return nil, err
		}
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
// is released. The shards of one model must change version together: a
// half-refreshed pipeline would mix weights from two versions inside
// one forward pass.
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
	restores, iter, err := g.openModels(pin)
	if err != nil {
		pin.Release()
		return 0, err
	}
	if err := g.recordLayout(); err != nil {
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
			if err := g.restoreShard(s, restores[i]); err != nil {
				// Roll the already-restored shards back to the old
				// (still pinned) snapshot so no forward pass can ever
				// mix weights from two versions.
				var rollbackErr error
				for _, prev := range g.shards[:i] {
					if rerr := g.restoreShard(prev, prev.restore); rerr != nil && rollbackErr == nil {
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
		s.restore = restores[i]
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
		key, err := g.f.provisionEnclaveKey(s.encl)
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

// Close quiesces the pipeline (every accepted batch is answered) and
// tears down the shard enclaves, returning their entire footprint to
// the host.
func (g *ShardGroup) Close() error {
	g.submitMu.Lock()
	defer g.submitMu.Unlock()
	if g.closed {
		return ErrShardGroupClosed
	}
	g.quiesce()
	g.closed = true
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

// Report returns the serving precision and, for a multi-range plan,
// the pipeline's shape and its restore counters summed over the
// shards; a one-range group reports as the whole-model replica it is.
// In streaming mode restores are the price paid per batch per parked
// shard instead of the paging knee; with double-buffered restore most
// batches find their stage hot or mid-restore, so stalls stay near the
// per-batch stage-0 floor.
func (g *ShardGroup) Report() BackendReport {
	r := BackendReport{Precision: g.prec}
	if len(g.shards) == 1 {
		return r
	}
	r.Shards, r.Streaming = len(g.shards), g.streaming
	for _, s := range g.shards {
		r.ShardRestores += uint64(s.mRestores.Value())
		r.ShardStalls += uint64(s.mStalls.Value())
		r.ShardPrefetchWaits += uint64(s.mPrefetchWaits.Value())
		r.ShardPrefetched += uint64(s.mPrefetched.Value())
	}
	return r
}

// ModelConfigText returns the framework's Darknet .cfg text — what the
// fleet placement planner parses to compute shard footprints without
// touching the enclave model.
func (f *Framework) ModelConfigText() string { return f.cfg.ModelConfig }

// ServingLayout returns the recorded serving layout when its plan is a
// contiguous cover of a numLayers-layer model, the zero Layout
// otherwise: a shape change or a corrupt record simply replans.
func (f *Framework) ServingLayout(numLayers int) mirror.Layout {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return mirror.Layout{}
	}
	l, err := f.pub.Layout()
	if err != nil || validateShardPlan(l.Plan, numLayers) != nil {
		return mirror.Layout{}
	}
	return l
}

// RecordServingLayout durably records l as the serving layout, in one
// transaction (nothing is written when l is already on record).
func (f *Framework) RecordServingLayout(l mirror.Layout) error {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return err
	}
	return f.pub.RecordLayout(l)
}
