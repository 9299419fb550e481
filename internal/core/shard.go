package core

import (
	"context"
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
// enclaves, each owning one contiguous layer range that it reads —
// sealed, from an immutable published snapshot in PM — exactly as
// crash recovery does (Algorithm 3, mirror_in). A serving replica is the
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
// activation buffers — only while processing a batch ("hot"). A
// streaming stage reads its parameters from the pinned published
// snapshot in PM for every batch, trading the fault storm for a sealed
// PM read and an in-enclave decrypt, exactly the byte-addressable-PM
// bargain the paper builds on. It reads them as the forward pass
// reaches each layer (mirror.Opener.Forward): a fully connected layer
// whose sealed segments hold whole weight rows multiplies each segment
// as it opens into a cache-sized tile, so the plaintext weights are
// never written out whole; any other layer opens into its own buffers
// first. The pipeline admits only as many concurrent batches as hot
// shards fit the host's EPC headroom, so the host stays under the knee
// and serving pays (near) zero faults where the monolithic replica pays
// all-miss.
//
// When the whole plan fits the headroom the group runs resident: every
// shard restores its range once and stays hot, and nothing is re-read
// per batch.
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
// activations crossing between them travel an inter-host channel
// instead of a same-machine buffer pass. Both endpoints are shard
// enclaves the group attested and keyed itself, and the activations
// stay sealed under that key, so a channel carries no key of its own.
// Bind is called once per adjacent (from, to) stage pair while the
// group is built, and Carry once per micro-batch crossing that
// boundary, with the sealed activation payload. A Carry error fails
// the batch.
type Handoff interface {
	Bind(from, to int, src, dst *enclave.Enclave)
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

// shard is one pipeline stage: an enclave owning one contiguous layer
// range of the model.
type shard struct {
	idx  int
	encl *enclave.Enclave
	eng  *engine.Engine
	net  *darknet.Network
	rng  darknet.ShardRange

	// nodeFrom is the index of the shard's first layer node in the
	// persistent snapshot (what its Opener reads from).
	nodeFrom int
	// footprint is the hot working set: parameters + activations.
	footprint int
	// open reads the range from the pinned snapshot the group serves.
	open *mirror.Opener

	// busy is held by the batch running this stage, from its Ecall
	// through the hand-off of its sealed activations downstream.
	busy sync.Mutex

	// mRestores counts the stage's range restores from PM in the
	// group's registry: one per batch while streaming.
	mRestores *obs.Counter

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

	// reg holds the group's per-shard restore counters (see
	// ShardOptions.Metrics); Report sums them across shards.
	reg *obs.Registry

	// keyEpoch is the framework key epoch of the data key the shard
	// engines hold (guarded by submitMu, as the engines are swapped
	// only while quiesced).
	keyEpoch uint64

	// handoff, when non-nil, carries sealed activations across stage
	// boundaries (ShardOptions.Handoff — the fleet's inter-host
	// channels).
	handoff Handoff
}

// NewShardGroup splits the framework's model into contiguous layer
// ranges and builds one shard enclave per range on opts.Host (the
// framework's host by default): each shard is attested and provisioned
// with the data key over its own channel (enclave.Enclave.ProvisionKey),
// and restores only its range from the latest published snapshot
// (publishing the current model first if nothing is published). Every
// shard enclave reserves its overhead plus its range's ShardFootprintAt.
// A multi-range fp32 split the group planned itself is recorded as the
// serving layout in the snapshot store, durably; auto planning reads it
// back, so a group re-created after a crash restores the same split.
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
	pin, key, epoch, err := f.pinServing()
	if err != nil {
		return nil, fmt.Errorf("core: shard pin: %w", err)
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
		keyEpoch:  epoch,
		handoff:   opts.Handoff,
	}
	fail := func(err error) (*ShardGroup, error) {
		for _, s := range g.shards {
			_ = s.encl.Close()
		}
		pin.Release()
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
			idx:         i,
			encl:        encl,
			mRestores:   reg.Counter("shard_restores_total", "Layer-range restores from PM, by shard.", labels...),
			spanWait:    "wait/" + k,
			spanRestore: "restore/" + k,
			spanOpen:    "open/" + k,
			spanCompute: "compute/" + k,
			spanSeal:    "seal/" + k,
		})
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
		s.net, s.rng = sub, r
		s.nodeFrom = full.ParamLayersBefore(r.From)
		s.footprint = footprint
	}
	engs, err := g.provision(key)
	if err != nil {
		return fail(err)
	}
	for i, s := range g.shards {
		s.eng = engs[i]
	}

	// Bind the hand-off seam once per adjacent stage pair, with the
	// enclaves built, before any batch flows.
	if g.handoff != nil {
		for i := 0; i+1 < len(g.shards); i++ {
			g.handoff.Bind(i, i+1, g.shards[i].encl, g.shards[i+1].encl)
		}
	}

	// Residency mode, judged per host: the whole plan resident when
	// every host can hold its placed shards within what it had to
	// offer (or the plan is one range), else stream ranges from PM
	// with a pipeline window sized so each host's hot set stays within
	// its budget (the window is the most constrained host's). A batch
	// holds one range at a time, and the window budgets two per batch:
	// the server sizes its workers from the window, and one more
	// streaming worker would split its callers into batches of one,
	// each paying the whole model's AES. So the residency bound (window
	// x per-batch demand <= budget) holds with room to spare. A window
	// of at least 1 always serves — an oversized single shard
	// overcommits its host while hot and pays (bounded) pressure,
	// mirroring the one-replica floor of WorkersAuto. A single-host plan
	// reduces to the pre-fleet arithmetic exactly.
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
		perBatch := 2 * d.maxFP
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

	// Open each shard's snapshot handle on the pinned version and
	// record the layout.
	opens, iter, err := g.openModels(pin, engs)
	if err != nil {
		return fail(fmt.Errorf("core: shard snapshot: %w", err))
	}
	for i, s := range g.shards {
		s.open = opens[i]
	}
	g.pin, g.version, g.iter = pin, pin.Version(), iter
	if err := g.recordLayout(); err != nil {
		return fail(fmt.Errorf("core: serving layout: %w", err))
	}
	if !g.streaming {
		for _, s := range g.shards {
			err := s.encl.Ecall(func() error {
				if err := s.encl.Reserve(s.footprint); err != nil {
					return err
				}
				return g.restore(s, s.open)
			})
			if err != nil {
				return fail(fmt.Errorf("core: shard %d restore: %w", s.idx, err))
			}
			s.mRestores.Inc()
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
		pin, err := f.PinPublished()
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

// provision delivers key into every shard enclave over its own
// attestation channel and returns one engine per shard. Nothing is
// installed: the stages of one pipeline must always share a key, or
// the sealed activation hand-off between them breaks, so callers swap
// the engines in only once every shard has been keyed.
func (g *ShardGroup) provision(key []byte) ([]*engine.Engine, error) {
	engs := make([]*engine.Engine, len(g.shards))
	for i, s := range g.shards {
		k, err := s.encl.ProvisionKey(key)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if engs[i], err = engine.New(k, engine.WithEnclave(s.encl)); err != nil {
			return nil, fmt.Errorf("core: shard %d engine: %w", i, err)
		}
	}
	return engs, nil
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
	if err := f.attachStore(); err != nil {
		return err
	}
	if cur, err := f.store.Layout(); err == nil && slices.Equal(cur.Plan, plan) {
		return nil
	}
	return f.store.RecordLayout(mirror.Layout{Plan: plan})
}

// openModels opens one snapshot handle per shard on the pinned
// snapshot — its layer range of the fp32 snapshot, or at Int8 of its
// quantized variant — decrypting with engs[i], and returns each
// handle's Opener of the shard's network, with the snapshot's
// iteration. The openers are NOT installed on the shards — callers
// swap them in only once every fallible step of their control
// operation has succeeded, so a failed Refresh never leaves a shard
// reading an unpinned frame.
func (g *ShardGroup) openModels(pin *mirror.Pin, engs []*engine.Engine) ([]*mirror.Opener, int, error) {
	g.f.pmMu.Lock()
	defer g.f.pmMu.Unlock()
	opens := make([]*mirror.Opener, len(g.shards))
	iter := 0
	for i, s := range g.shards {
		m, err := pin.Open(engs[i], g.prec, mirror.WithEnclave(s.encl))
		if err != nil {
			return nil, 0, err
		}
		if opens[i], err = m.Opener(s.net, s.nodeFrom); err != nil {
			return nil, 0, err
		}
		iter = m.Iteration()
	}
	return opens, iter, nil
}

// restore installs a resident shard's whole layer range from o into
// its network, under the PM lock. Callers are inside the shard's
// enclave.
func (g *ShardGroup) restore(s *shard, o *mirror.Opener) error {
	g.f.pmMu.Lock()
	defer g.f.pmMu.Unlock()
	_, err := o.Restore()
	return err
}

// step runs the batch through one stage: it waits until the batch
// ahead has left the stage, processes the batch there in one Ecall and
// — still holding the stage, so batches leave it in the order they ran
// it — carries the sealed activations on to the next stage.
func (g *ShardGroup) step(s *shard, job *shardJob) error {
	last := s.idx == len(g.shards)-1
	s.busy.Lock()
	defer s.busy.Unlock()
	job.lap(s.spanWait)
	err := g.process(s, job, last)
	if err == nil && !last && g.handoff != nil {
		// The sealed activations leave this stage: on a multi-host
		// pipeline they cross the fleet's inter-host channel before
		// the downstream stage can open them.
		if err = g.handoff.Carry(s.idx, s.idx+1, job.sealed); err != nil {
			err = fmt.Errorf("core: shard %d->%d hand-off: %w", s.idx, s.idx+1, err)
		}
	}
	return err
}

// process runs one micro-batch through one shard inside its enclave:
// a streaming stage reserves its range on the host first and returns it
// when the Ecall ends. It opens the incoming sealed activations (or
// stages the batch images at stage 0), runs the range's layers —
// a streaming stage reading each parameter layer from the pinned
// snapshot as it reaches it — and seals the result for the next shard,
// or classifies at the last. It records per-stage spans (restore — the
// enclave crossing and the reservation — open, compute, seal) on the
// job's trace so slow requests attribute their time.
func (g *ShardGroup) process(s *shard, job *shardJob, last bool) error {
	return s.encl.Ecall(func() error {
		if g.streaming {
			if err := s.encl.Reserve(s.footprint); err != nil {
				return fmt.Errorf("core: shard %d reserve: %w", s.idx, err)
			}
			defer s.encl.Free(s.footprint)
		}
		job.lap(s.spanRestore)
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
		out, err := g.forward(s, in, job.n)
		job.lap(s.spanCompute)
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", s.idx, err)
		}
		if last {
			job.classes = darknet.Classes(out, job.n, s.net.OutputSize())
			return nil
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

// forward runs in through the stage's layers: a resident stage's
// network as restored, a streaming stage's through its Opener, which
// reads each parameter layer from the pinned snapshot as the pass
// reaches it and holds the PM lock for that layer only.
func (g *ShardGroup) forward(s *shard, in []float32, n int) ([]float32, error) {
	if !g.streaming {
		return s.net.Forward(in, n, false)
	}
	out, err := s.open.Forward(in, n, &g.f.pmMu)
	if err != nil {
		return nil, err
	}
	s.mRestores.Inc()
	return out, nil
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
// token: control operations must not race a batch reading the snapshot
// handles they are about to swap. Callers hold submitMu, so no new
// batch can slip in.
func (g *ShardGroup) quiesce() {
	for i := 0; i < g.window; i++ {
		g.slots <- struct{}{}
	}
}

func (g *ShardGroup) resume() {
	for i := 0; i < g.window; i++ {
		<-g.slots
	}
}

// Refresh rolls the group to the latest published version: the
// pipeline is quiesced (queued callers wait, none fail), every shard
// re-pins and — in resident mode — restores its range (a streaming
// shard reads the new pin from its next batch on), and the old pin
// is released. When the framework's data key has changed since the
// shards were keyed (Framework.RotateKey, or a recovery that adopted a
// rotated key), the current key is first provisioned into every shard
// enclave over fresh attestation channels. The shards of one model must
// change version and key together: a half-refreshed pipeline would mix
// weights from two versions inside one forward pass, or seal an
// activation its successor cannot open.
//
// Fallible steps are staged: the new engines and snapshot openers are
// installed — and the old pin released — only after everything has
// succeeded, so a failed refresh leaves the group serving the old
// version under the old key, never reading an unpinned frame. A partial
// resident-mode restore is rolled back from the still-pinned old
// snapshot.
func (g *ShardGroup) Refresh() (int, error) {
	g.submitMu.Lock()
	defer g.submitMu.Unlock()
	if g.closed {
		return 0, ErrShardGroupClosed
	}
	g.quiesce()
	defer g.resume()
	// The key comes with the pin, so a rotation racing this refresh
	// leaves it on a version it can open; the next refresh catches up.
	pin, key, epoch, err := g.f.pinServing()
	if err != nil {
		return 0, err
	}
	engs := make([]*engine.Engine, len(g.shards))
	for i, s := range g.shards {
		engs[i] = s.eng
	}
	if epoch != g.keyEpoch {
		if engs, err = g.provision(key); err != nil {
			pin.Release()
			return 0, err
		}
	}
	opens, iter, err := g.openModels(pin, engs)
	if err != nil {
		pin.Release()
		return 0, err
	}
	if err := g.recordLayout(); err != nil {
		pin.Release()
		return 0, err
	}
	if !g.streaming {
		restoreIn := func(s *shard, o *mirror.Opener) error {
			return s.encl.Ecall(func() error { return g.restore(s, o) })
		}
		for i, s := range g.shards {
			if err := restoreIn(s, opens[i]); err != nil {
				// Roll the already-restored shards back to the old
				// (still pinned) snapshot so no forward pass can ever
				// mix weights from two versions.
				var rollbackErr error
				for _, prev := range g.shards[:i] {
					if rerr := restoreIn(prev, prev.open); rerr != nil && rollbackErr == nil {
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
		s.eng, s.open = engs[i], opens[i]
	}
	g.keyEpoch = epoch
	g.mu.Lock()
	old := g.pin
	g.pin, g.version, g.iter = pin, pin.Version(), iter
	g.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return iter, nil
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
// In streaming mode restores are the price paid per batch per stage
// instead of the paging knee: one per stage per batch, read as the
// pass reaches each layer, so nothing is prefetched and nothing stalls.
func (g *ShardGroup) Report() BackendReport {
	r := BackendReport{Precision: g.prec}
	if len(g.shards) == 1 {
		return r
	}
	r.Shards, r.Streaming = len(g.shards), g.streaming
	for _, s := range g.shards {
		r.ShardRestores += uint64(s.mRestores.Value())
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
	if err := f.attachStore(); err != nil {
		return mirror.Layout{}
	}
	l, err := f.store.Layout()
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
	if err := f.attachStore(); err != nil {
		return err
	}
	return f.store.RecordLayout(l)
}
