// Package serve implements the Plinius secure inference serving
// subsystem: the paper's §VI secure classification turned into a
// request-level model server.
//
// A Server accepts single-image classification requests concurrently
// and serves them in micro-batches that its workers form themselves: an
// idle worker takes the next request straight off the admission queue
// together with whatever else is already queued (up to
// Options.MaxBatch) and dispatches immediately, so batches grow because
// every worker was busy, never because a timer said so. One worker
// forms at a time, and it waits for company only as long as the
// measured service time justifies — a quarter of what a batch has
// lately cost per request, capped by Options.MaxQueueLatency, and not
// at all when that is too short to time (see Server.form).
//
// The batches run on a pool of enclave replicas. Each replica is its
// own enclave with its own encryption engine and its own copy of the
// model restored from an immutable published snapshot in PM
// (core.Replica), so replicas share no mutable state and scale across
// cores while parameters and inputs stay inside enclave memory, exactly
// as in the single-enclave experiment.
//
// Replicas join their framework's EPC host: on real SGX all enclaves
// on one machine share a single enclave page cache, so the pool's
// aggregate working set — training enclave plus every replica — is
// what decides whether serving runs on the fast side of the paging
// knee. Options.Workers = WorkersAuto sizes the pool from the host's
// remaining EPC headroom (one replica footprint per replica, at least
// 1, at most GOMAXPROCS); Stats.EPCPressure reports the host's
// overcommit fraction, nonzero exactly when co-located enclaves have
// jointly outgrown the usable EPC.
//
// Admission control is deadline-aware: the request queue is bounded
// (Options.QueueDepth) and a full queue rejects immediately with
// ErrOverloaded rather than applying unbounded backpressure; a queued
// request whose context expires before dispatch is dropped without
// ever occupying a micro-batch slot. Options.MaxEPCPressure adds
// pressure-aware admission: requests are shed while the host EPC is
// overcommitted past the limit.
//
// The server participates in the v2 model-publication handshake:
// Refresh restores every replica to the latest published version, one
// replica at a time, while the others keep serving — zero-downtime and
// race-free against concurrent training, because published snapshots
// are immutable and pinned during restore. RotateKey re-provisions the
// data key end to end (framework re-seal + per-replica attested key
// delivery) with the same no-gap property.
//
// Dispatch preserves the model's math: every layer processes batch
// samples independently, so a request's predicted class is identical
// whatever batch it lands in and identical to sequential
// Framework.Infer.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/fleet"
	"plinius/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxBatch        = 32
	DefaultMaxQueueLatency = 2 * time.Millisecond
	DefaultQueueDepth      = 1024
)

// WorkersAuto sizes the replica pool from the EPC headroom left on the
// framework's host: as many replicas as fit the remaining usable EPC
// without pushing the host over the paging knee (each replica claims
// Framework.ReplicaFootprint bytes), at least 1, at most GOMAXPROCS.
// A model so large that even one replica overcommits the host still
// gets its one replica — it serves, but pays paging and reports
// EPCPressure.
const WorkersAuto = -1

// ShardAuto, as Options.Shards, shards the model automatically: when
// even a single whole-model replica would not fit the host's remaining
// EPC headroom, the server serves through a core.ShardGroup pipeline —
// the model split into contiguous layer ranges, each in its own small
// shard enclave, hot ranges bounded to the headroom and parked ranges
// streamed back from the pinned published snapshot in PM — instead of
// a monolithic replica that would push the whole host over the paging
// knee. When a replica fits, ShardAuto behaves exactly like the
// whole-model replica pool.
const ShardAuto = -1

// Options parameterises a Server.
type Options struct {
	// Workers is the number of enclave inference replicas (default 1).
	// WorkersAuto sizes the pool from the host's EPC headroom.
	Workers int
	// MaxBatch is the largest micro-batch a worker forms (default 32).
	MaxBatch int
	// MaxQueueLatency is the upper bound on the wait for batch company
	// (default 2ms): an idle worker dispatches immediately, and a
	// worker whose requests are slow enough to serve that sharing a
	// batch pays waits a quarter of the measured per-request service
	// time for more of them, never longer than this.
	MaxQueueLatency time.Duration
	// QueueDepth is the request queue capacity (default 1024). A
	// Classify arriving at a full queue is rejected immediately with
	// ErrOverloaded; callers are expected to shed or retry with
	// backoff.
	QueueDepth int
	// Seed differentiates the replica enclaves' RNGs (IVs etc.).
	Seed int64
	// MaxEPCPressure, when positive, enables pressure-aware admission:
	// a Classify arriving while the host EPC is overcommitted beyond
	// this fraction (Stats.EPCPressure, e.g. 0.25 = working set 25%
	// past the usable EPC) is shed immediately with an error matching
	// both ErrOverloaded and ErrEPCPressure. Zero disables shedding:
	// an overcommitted host keeps serving, just slower (every enclave
	// touch pays the shared paging knee).
	MaxEPCPressure float64
	// Shards selects sharded serving: 0 (default) serves whole-model
	// replicas; a positive count pipelines the model across at most
	// that many shard enclaves (core.ShardGroup); ShardAuto shards
	// only when a whole replica exceeds the host's EPC headroom. In
	// shard mode Workers is ignored — the pool is one pipelined group,
	// and the worker count is its residency window.
	Shards int
	// ShardOverheadBytes is the parked per-shard-enclave working set
	// in shard mode (default core.DefaultShardOverheadBytes). Small
	// hosts shard at finer granularity with a smaller overhead.
	ShardOverheadBytes int
	// Fleet, when non-empty, serves through the multi-host fabric
	// (internal/fleet) instead of replicas or a single shard group:
	// the model is bin-packed across these hosts' EPC headrooms into
	// replica groups of pipelined shard enclaves joined by attested
	// inter-host channels, and micro-batches are routed least-loaded
	// across the groups. Workers and Shards are ignored in fleet mode;
	// the worker count is the fleet's aggregate pipeline window. A
	// model with no feasible placement fails construction with an
	// error matching fleet.ErrInfeasible.
	Fleet []*enclave.Host
	// FleetAuto gates the fleet the way ShardAuto gates sharding: the
	// Fleet hosts are engaged only when a whole-model replica exceeds
	// the framework host's EPC headroom; while a replica fits, the
	// server ignores Fleet and serves the plain replica pool.
	FleetAuto bool
	// FleetReplicas is the number of replica groups in fleet mode;
	// zero packs as many as the fleet's capacity admits.
	FleetReplicas int
	// Quantized serves the int8-quantized snapshot variant instead of
	// fp32: publication switches to quantized mode (every snapshot
	// carries the int8 variant alongside fp32), and each replica
	// restores the variant — ~4x smaller sealed payloads and EPC
	// footprints, so more replicas fit the same headroom, at a small
	// documented accuracy cost. Applies to the whole-model replica
	// pool; shard and fleet modes serve fp32 regardless.
	Quantized bool
	// Metrics is the registry the server's metrics (and, in shard
	// mode, the shard pipeline's) register into. Nil gets the server a
	// private registry, retrievable via Server.Metrics — servers are
	// built and torn down freely without colliding on series.
	Metrics *obs.Registry
	// TraceKeep is how many of the slowest request traces the server
	// retains for Server.SlowTraces (default obs.DefaultTraceKeep).
	TraceKeep int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 && o.Workers != WorkersAuto {
		o.Workers = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.MaxQueueLatency <= 0 {
		o.MaxQueueLatency = DefaultMaxQueueLatency
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	return o
}

// Prediction is the answer to one classification request.
type Prediction struct {
	// Class is the predicted class index.
	Class int
	// Latency is the request's end-to-end time in the server, from
	// enqueue to classification.
	Latency time.Duration
	// BatchSize is the size of the micro-batch the request rode in.
	BatchSize int
	// Worker is the index of the replica that served the request.
	Worker int
	// ModelVersion is the published model version that answered.
	ModelVersion uint64
}

// Server errors.
var (
	ErrClosed      = errors.New("serve: server is closed")
	ErrBadImage    = errors.New("serve: image does not match the model input size")
	ErrOverloaded  = errors.New("serve: request queue is full")
	ErrNotServable = errors.New("serve: framework cannot serve a model")
	ErrEPCPressure = errors.New("serve: host EPC overcommitted past the admission limit")
)

type request struct {
	ctx   context.Context
	image []float32
	enq   time.Time // entered reqCh
	taken time.Time // a forming worker took it off reqCh
	tr    *obs.Trace
	done  chan result
}

// requestPool recycles requests with their done channel. Only a
// Classify whose request no worker can still hold puts it back — it
// was never queued, or its result came — never one that gave up on
// ctx.Done.
var requestPool = sync.Pool{New: func() any { return &request{done: make(chan result, 1)} }}

func (r *request) recycle() {
	*r = request{done: r.done}
	requestPool.Put(r)
}

type result struct {
	pred Prediction
	err  error
}

// backend is what a worker serves one micro-batch through: a
// whole-model replica, or one slot of the shard group's or fleet's
// pipeline window (every slot then shares the same two funcs).
type backend struct {
	id       int
	classify func(context.Context, []float32) ([]int, error)
	version  func() uint64
	rep      *core.Replica // replica pool only: what Refresh and RotateKey update
}

// backendPool lends the backends out: to a worker for the length of
// one batch, and in the replica pool to Refresh / RotateKey one chosen
// replica at a time — so a control call never runs beside a batch on
// the same replica, the other replicas keep serving, and a batch
// formed meanwhile goes to whichever replica comes free first.
type backendPool struct {
	mu   sync.Mutex
	cond sync.Cond  // signalled on every put
	free []*backend // LIFO: the backend that served last is the warmest
}

// get borrows any free backend, want == nil, or that one.
func (p *backendPool) get(want *backend) *backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i := len(p.free) - 1; i >= 0; i-- {
			if b := p.free[i]; want == nil || b == want {
				p.free = append(p.free[:i], p.free[i+1:]...)
				return b
			}
		}
		p.cond.Wait()
	}
}

func (p *backendPool) put(b *backend) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
	// Broadcast: a worker and a control call waiting for different
	// backends may both be parked here.
	p.cond.Broadcast()
}

// Server is a running inference service over one trained framework.
type Server struct {
	opts      Options
	f         *core.Framework
	host      *enclave.Host
	inputSize int
	replicas  []*core.Replica
	group     *core.ShardGroup // non-nil in shard mode; replicas empty
	fleet     *fleet.Fleet     // non-nil in fleet mode; group and replicas empty
	backends  []*backend       // one per worker
	pool      backendPool

	reqCh   chan *request
	formMu  sync.Mutex   // held by the one worker forming a batch
	service atomic.Int64 // recent floor of batch service time per request, ns
	wg      sync.WaitGroup

	mu     sync.RWMutex // guards closed; held shared across enqueues
	closed bool
	ctlMu  sync.Mutex    // serializes Refresh / RotateKey
	iter   atomic.Int64  // training iteration of the served model
	ver    atomic.Uint64 // published version of the served model

	reg    *obs.Registry
	tracer *obs.Tracer
	stats  statsCollector
}

// New builds and starts a Server on f's model. The current enclave
// parameters are published to PM as an immutable versioned snapshot
// (so serving sees exactly the weights f holds), then Options.Workers
// replicas are attested, provisioned and restored from that pinned
// version. Training may continue concurrently: call Refresh to roll
// the pool forward to a later published version.
//
// ctx bounds server construction (replica attestation and restore); it
// does not affect the running server. A framework that cannot serve —
// crashed, or dataset-less with nothing published or mirrored in PM —
// fails fast with an error matching ErrNotServable (and the underlying
// core sentinel).
func New(ctx context.Context, f *core.Framework, opts Options) (*Server, error) {
	s, err := build(ctx, f, opts)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// build is New up to, not including, starting the workers.
func build(ctx context.Context, f *core.Framework, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := f.Servable(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotServable, err)
	}
	// A lazily-recovered framework (Recover with restoreNow=false)
	// still holds random weights while PM holds the real model; pull
	// the mirror in before publishing so serving never snapshots an
	// untrained enclave state.
	if err := f.EnsureModelCurrent(); err != nil {
		return nil, fmt.Errorf("serve: restore model before publish: %w", err)
	}
	// Quantized serving flips the framework into quantized publication
	// before the snapshot below, so the very first published version
	// already carries the int8 variant the replicas will restore.
	if opts.Quantized {
		f.SetPublishQuantized(true)
	}
	ver, err := f.LatestPublished()
	if err != nil {
		return nil, fmt.Errorf("serve: read publication: %w", err)
	}
	// Publish the framework's current model — unless the enclave holds
	// nothing (iteration 0, e.g. dataset-less after a restart) and a
	// previously published version already exists; then serve that
	// instead of superseding it with random weights.
	if f.Iteration() > 0 || ver == 0 {
		ver, err = f.Publish()
		if err != nil {
			return nil, fmt.Errorf("serve: publish model to PM: %w", err)
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:      opts,
		f:         f,
		host:      f.Host,
		inputSize: f.Net.InputSize(),
		reqCh:     make(chan *request, opts.QueueDepth),
		reg:       reg,
		tracer:    obs.NewTracer(opts.TraceKeep),
		stats:     newStatsCollector(reg),
	}
	reg.GaugeFunc("serve_batch_service_seconds", "Recent floor of micro-batch service time per request served; a forming worker waits at most a quarter of it for batch company.",
		func() float64 { return time.Duration(s.service.Load()).Seconds() })
	reg.GaugeFunc("serve_epc_pressure", "Host EPC overcommit fraction (0 = working set fits the usable EPC).",
		func() float64 { return s.host.Overcommit() })
	reg.GaugeFunc("serve_host_resident_bytes", "Aggregate enclave working set on the host.",
		func() float64 { return float64(s.host.Resident()) })
	reg.GaugeFunc("serve_queue_len", "Requests queued until a worker takes them.",
		func() float64 { return float64(len(s.reqCh)) })
	reg.GaugeFunc("serve_quantized", "1 when the pool serves the int8-quantized snapshot variant, 0 for fp32.",
		func() float64 {
			if s.Precision() == darknet.Int8 {
				return 1
			}
			return 0
		})

	// Fleet serving: the multi-host fabric, when Options.Fleet hosts
	// are given (gated on the over-headroom regime by FleetAuto). The
	// fleet is one logical pool: the router inside it spreads batches
	// over replica groups, so the server runs one worker per slot of
	// the aggregate pipeline window.
	fleeted := len(opts.Fleet) > 0
	if fleeted && opts.FleetAuto {
		fp := replicaFootprint(f, opts)
		fleeted = fp > 0 && fp > f.Host.Headroom()
	}
	if fleeted {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serve: cancelled building fleet: %w", err)
		}
		fl, err := fleet.New(f, fleet.Options{
			Hosts:         opts.Fleet,
			Replicas:      opts.FleetReplicas,
			Batch:         opts.MaxBatch,
			OverheadBytes: opts.ShardOverheadBytes,
			Seed:          opts.Seed,
			Metrics:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: fleet: %w", err)
		}
		s.fleet = fl
		s.iter.Store(int64(fl.Iteration()))
		s.ver.Store(fl.Version())
		for i := 0; i < fl.Window(); i++ {
			s.backends = append(s.backends, &backend{id: i, classify: fl.ClassifyBatchCtx, version: fl.Version})
		}
		return s, nil
	}

	// Sharded serving: explicit Options.Shards, or ShardAuto when even
	// one whole-model replica would blow past the host's remaining EPC
	// headroom — the regime where a monolithic pool would drag every
	// co-located enclave over the paging knee.
	sharded := opts.Shards > 0
	if opts.Shards == ShardAuto {
		fp := replicaFootprint(f, opts)
		sharded = fp > 0 && fp > f.Host.Headroom()
	}
	if sharded {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serve: cancelled building shard group: %w", err)
		}
		so := core.ShardOptions{
			Batch:         opts.MaxBatch,
			Seed:          opts.Seed,
			OverheadBytes: opts.ShardOverheadBytes,
			Metrics:       reg,
		}
		if opts.Shards > 0 {
			so.Shards = opts.Shards
		}
		g, err := f.NewShardGroup(so)
		if err != nil {
			return nil, fmt.Errorf("serve: shard group: %w", err)
		}
		s.group = g
		s.iter.Store(int64(g.Iteration()))
		s.ver.Store(g.Version())
		for i := 0; i < g.Window(); i++ {
			s.backends = append(s.backends, &backend{id: i, classify: g.ClassifyBatchCtx, version: g.Version})
		}
		return s, nil
	}

	if opts.Workers == WorkersAuto {
		opts.Workers = autoWorkers(f, replicaFootprint(f, opts))
		s.opts.Workers = opts.Workers
	}
	var repOpts []core.ReplicaOption
	if opts.Quantized {
		repOpts = append(repOpts, core.WithQuantizedReplica())
	}
	for i := 0; i < opts.Workers; i++ {
		if err := ctx.Err(); err != nil {
			for _, r := range s.replicas {
				_ = r.Close()
			}
			return nil, fmt.Errorf("serve: cancelled building replica %d: %w", i, err)
		}
		rep, err := f.NewReplica(opts.Seed+int64(i)+1, repOpts...)
		if err != nil {
			for _, r := range s.replicas {
				_ = r.Close()
			}
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		s.replicas = append(s.replicas, rep)
		s.backends = append(s.backends, &backend{id: i, classify: rep.ClassifyBatchCtx, version: rep.Version, rep: rep})
	}
	s.iter.Store(int64(s.replicas[0].Iteration()))
	s.ver.Store(ver)
	return s, nil
}

// start launches one worker per backend.
func (s *Server) start() {
	s.pool.cond.L = &s.pool.mu
	s.pool.free = append(s.pool.free, s.backends...)
	s.wg.Add(len(s.backends))
	for i := range s.backends {
		go s.worker(i)
	}
}

// replicaFootprint is the per-replica EPC claim at the configured
// serving precision: a quantized pool restores the int8 snapshot
// variant, so auto worker sizing and the ShardAuto/FleetAuto gates see
// the ~4x smaller footprint and fit more replicas per host.
func replicaFootprint(f *core.Framework, opts Options) int {
	if opts.Quantized {
		return f.ReplicaFootprintAt(darknet.Int8)
	}
	return f.ReplicaFootprint()
}

// autoWorkers implements WorkersAuto: fit the replica pool into the
// EPC headroom left on the framework's host. Each replica claims per
// bytes — the model parameters at the serving precision plus
// per-enclave overhead; replicas beyond the remaining usable EPC would
// push every co-located enclave — including the training enclave —
// past the shared paging knee, so the pool stops at the budget.
// Clamped to [1, GOMAXPROCS]: one replica always serves (paying
// pressure if it must), and replicas beyond the CPU count add no
// forward-pass parallelism.
func autoWorkers(f *core.Framework, per int) int {
	n := 1
	if per > 0 {
		n = f.Host.Headroom() / per
	}
	if n < 1 {
		n = 1
	}
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	return n
}

// Classify submits one image and blocks until its micro-batch has been
// served or ctx is done. The image must stay unmodified for the
// duration of the call (it is copied into the batch buffer only at
// dispatch). A full request queue rejects immediately with
// ErrOverloaded; a request whose ctx expires while queued is dropped
// without occupying a batch slot.
func (s *Server) Classify(ctx context.Context, image []float32) (Prediction, error) {
	// One trace per request, closed on every exit path: the tracer's
	// active count returns to zero whenever the server is idle.
	tr := s.tracer.Start()
	pred, err := s.classify(ctx, image, tr)
	if err != nil {
		tr.Fail(err)
	}
	tr.Finish()
	return pred, err
}

func (s *Server) classify(ctx context.Context, image []float32, tr *obs.Trace) (Prediction, error) {
	if err := ctx.Err(); err != nil {
		return Prediction{}, err
	}
	if len(image) != s.inputSize {
		return Prediction{}, fmt.Errorf("%w: got %d floats, want %d", ErrBadImage, len(image), s.inputSize)
	}
	if s.opts.MaxEPCPressure > 0 {
		if p := s.host.Overcommit(); p > s.opts.MaxEPCPressure {
			s.stats.recordEPCShed()
			return Prediction{}, fmt.Errorf("%w (pressure %.2f > %.2f): %w",
				ErrOverloaded, p, s.opts.MaxEPCPressure, ErrEPCPressure)
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Prediction{}, ErrClosed
	}
	req := requestPool.Get().(*request)
	req.ctx, req.image, req.enq, req.tr = ctx, image, time.Now(), tr
	// The shared lock is held across the enqueue so Close cannot close
	// reqCh between the check and the send. The send never blocks: a
	// full queue is an admission-control rejection, not backpressure.
	select {
	case s.reqCh <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		req.recycle()
		s.stats.recordRejected()
		return Prediction{}, fmt.Errorf("%w (depth %d)", ErrOverloaded, s.opts.QueueDepth)
	}

	select {
	case res := <-req.done:
		if res.err == nil {
			// The wakeup gap between the worker stamping the result
			// and this goroutine consuming it, so a request's spans
			// tile its end-to-end latency.
			tr.Add("deliver", time.Since(req.enq)-res.pred.Latency)
		}
		req.recycle() // the worker's send was its last touch of req
		return res.pred, res.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// minLinger is the shortest wait for batch company worth a timer: the
// runtime cannot time much less, and arming one costs a closed-loop
// client more than the company could save.
const minLinger = 100 * time.Microsecond

// take admits req, just received from reqCh, into the forming batch —
// unless its context already ended: an expired request is dropped here,
// before it can occupy a batch slot.
func (s *Server) take(batch []*request, req *request) []*request {
	if req.ctx.Err() != nil {
		s.stats.recordExpired()
		return batch
	}
	req.taken = time.Now()
	return append(batch, req)
}

// form builds the next micro-batch into batch; the caller holds formMu,
// so the workers form one at a time and two requests arriving together
// ride one batch instead of waking two workers. It parks until a live
// request arrives, adds whatever else is already queued, and then
// lingers for company for min(MaxQueueLatency, S/4), S being the
// recent floor of batch service time per request served (see
// serveBatch): a rider spares the pool about S of work and costs the
// batch a quarter of that, while a server whose requests are quick to
// serve — one at a time, or amortised over batches that are already
// large, or because it has served nothing yet — has no wait worth
// arming a timer for and dispatches at once. An empty result means the
// queue is closed and drained.
func (s *Server) form(batch []*request, timer *time.Timer) []*request {
	for len(batch) == 0 {
		req, ok := <-s.reqCh
		if !ok {
			return batch
		}
		batch = s.take(batch, req)
	}
drain:
	for len(batch) < s.opts.MaxBatch {
		select {
		case req, ok := <-s.reqCh:
			if !ok {
				return batch
			}
			batch = s.take(batch, req)
		default:
			break drain
		}
	}
	wait := min(s.opts.MaxQueueLatency, time.Duration(s.service.Load())/4)
	if wait < minLinger || len(batch) == s.opts.MaxBatch {
		return batch
	}
	start := time.Now()
	timer.Reset(wait)
	fired := false
linger:
	for len(batch) < s.opts.MaxBatch {
		select {
		case req, ok := <-s.reqCh:
			if !ok {
				break linger
			}
			batch = s.take(batch, req)
		case <-timer.C:
			fired = true
			break linger
		}
	}
	if !fired && !timer.Stop() {
		<-timer.C
	}
	s.stats.recordLinger(time.Since(start))
	return batch
}

// worker forms micro-batches and serves each on a backend borrowed from
// the pool for that batch.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	var (
		buf   = make([]float32, s.opts.MaxBatch*s.inputSize)
		batch = make([]*request, 0, s.opts.MaxBatch)
		spans []obs.SpanRec
		timer = time.NewTimer(time.Hour)
		// One scratch trace collects each batch's pipeline spans
		// (window, per-shard wait/restore/open/compute/seal, or the
		// replica's compute), folded into every rider's trace.
		bt = obs.NewTrace()
	)
	timer.Stop()
	// The label attributes enclave compute in CPU profiles to the worker.
	pprof.Do(obs.ContextWithTrace(context.Background(), bt), pprof.Labels("worker", strconv.Itoa(id)), func(ctx context.Context) {
		for {
			s.formMu.Lock()
			batch = s.form(batch[:0], timer)
			s.formMu.Unlock()
			if len(batch) == 0 {
				return
			}
			spans = s.serveBatch(ctx, batch, buf, bt, spans[:0])
		}
	})
}

// serveBatch runs one formed micro-batch on a borrowed backend and
// delivers per-request results: requests that expired since they were
// taken are dropped, the live images are copied into the contiguous
// batch buffer buf, and every live request gets its prediction (stamped
// with the post-classification version) or the batch error. spans is
// the worker's reused buffer for the batch's pipeline spans.
func (s *Server) serveBatch(ctx context.Context, batch []*request, buf []float32, bt *obs.Trace, spans []obs.SpanRec) []obs.SpanRec {
	n := 0
	for _, req := range batch {
		if req.ctx.Err() != nil {
			s.stats.recordExpired()
			continue
		}
		copy(buf[n*s.inputSize:], req.image)
		batch[n] = req
		n++
	}
	if n == 0 {
		return spans
	}
	live := batch[:n]
	b := s.pool.get(nil)
	dispatch := time.Now()
	classes, err := b.classify(ctx, buf[:n*s.inputSize])
	now := time.Now()
	var ver uint64
	if err == nil {
		ver = b.version()
	}
	s.pool.put(b)
	spans = bt.Drain(spans)
	// Per request, so that large batches, whose fixed cost is already
	// shared, do not argue for waiting longer and growing larger still.
	// And a floor, not a mean — down to a quicker sample at once, up an
	// eighth per slower one — because what slows a batch for a moment
	// (a collection, a descheduled worker) is no reason to wait for
	// company. Racing workers may lose an update; it is a hint.
	served := int64(now.Sub(dispatch)) / int64(n)
	if floor := s.service.Load(); floor > 0 && served > floor {
		served = min(served, floor+floor/8)
	}
	s.service.Store(served)
	if err != nil {
		for _, req := range live {
			req.done <- result{err: err}
		}
		return spans
	}
	s.stats.recordBatch(n)
	for i, req := range live {
		pred := Prediction{
			Class:        classes[i],
			Latency:      now.Sub(req.enq),
			BatchSize:    n,
			Worker:       b.id,
			ModelVersion: ver,
		}
		s.stats.record(pred)
		req.tr.Add("queue", req.taken.Sub(req.enq))
		req.tr.Add("batch", dispatch.Sub(req.taken))
		req.tr.AddSpans(spans)
		req.done <- result{pred: pred}
	}
	return spans
}

// Close stops accepting requests, serves everything already queued or
// in flight, tears down the replicas (or the shard group, or the
// fleet) and returns. Subsequent Classify and Close calls return
// ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()

	close(s.reqCh)
	s.wg.Wait()
	if s.fleet != nil {
		return s.fleet.Close()
	}
	if s.group != nil {
		return s.group.Close()
	}
	var firstErr error
	for _, r := range s.replicas {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Workers returns the number of serving workers: enclave replicas, or
// in shard mode the pipeline's residency window.
func (s *Server) Workers() int { return len(s.backends) }

// Shards returns the number of shard enclaves the model is pipelined
// across (per replica group in fleet mode), 0 when serving whole-model
// replicas.
func (s *Server) Shards() int {
	switch {
	case s.fleet != nil:
		return s.fleet.Shards()
	case s.group != nil:
		return s.group.Shards()
	}
	return 0
}

// ShardsStreaming reports whether the shard pipeline streams parked
// layer ranges from PM per batch (the over-headroom regime). Always
// false when serving whole-model replicas.
func (s *Server) ShardsStreaming() bool {
	if s.fleet != nil {
		return s.fleet.Streaming()
	}
	return s.group != nil && s.group.Streaming()
}

// ShardRestores counts layer-range restores from PM by the shard
// pipeline — the streaming mode's alternative currency to page faults.
// For a coherent multi-counter snapshot (restores, stalls, prefetch
// waits, prefetched) use Stats instead.
func (s *Server) ShardRestores() uint64 {
	switch {
	case s.fleet != nil:
		return s.fleet.Restores()
	case s.group != nil:
		return s.group.Restores()
	}
	return 0
}

// FleetSize returns the number of hosts in the serving fleet, 0 when
// not in fleet mode.
func (s *Server) FleetSize() int {
	if s.fleet == nil {
		return 0
	}
	return s.fleet.Hosts()
}

// FleetGroups returns the number of replica groups in fleet mode, 0
// otherwise.
func (s *Server) FleetGroups() int {
	if s.fleet == nil {
		return 0
	}
	return s.fleet.Groups()
}

// FleetHostReports returns the per-host fleet view (EPC budget, load,
// paging, placed shard ranges), nil when not in fleet mode.
func (s *Server) FleetHostReports() []fleet.HostReport {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.HostReports()
}

// FleetDegraded reports whether the serving fleet fell back to
// degraded streaming after host failures; always false outside fleet
// mode.
func (s *Server) FleetDegraded() bool {
	return s.fleet != nil && s.fleet.Degraded()
}

// FleetHostsDown returns how many fleet hosts are marked down, 0
// outside fleet mode.
func (s *Server) FleetHostsDown() int {
	if s.fleet == nil {
		return 0
	}
	return s.fleet.HostsDown()
}

// FleetRejoin re-admits fleet hosts that have come back and promotes
// the fleet to the best placement the live hosts hold (fleet.Rejoin).
// No-op outside fleet mode.
func (s *Server) FleetRejoin() error {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.Rejoin()
}

// Precision returns the parameter precision the pool serves: Int8 when
// Options.Quantized selected the quantized snapshot variant (whole-
// model replica pool only), FP32 otherwise — shard and fleet pipelines
// always serve fp32.
func (s *Server) Precision() darknet.Precision {
	if s.opts.Quantized && s.fleet == nil && s.group == nil {
		return darknet.Int8
	}
	return darknet.FP32
}

// Iteration returns the training iteration of the served model.
func (s *Server) Iteration() int { return int(s.iter.Load()) }

// Version returns the published model version the pool serves (the
// lowest across replicas mid-refresh; all replicas converge once a
// Refresh or RotateKey completes).
func (s *Server) Version() uint64 { return s.ver.Load() }

// eachReplica returns the control operation that runs op — Refresh or
// Rotate — on every replica, one at a time, each borrowed from the pool
// for the call: the replica being updated serves nothing, the rest of
// the pool keeps serving, so there is never a serving gap. ctx cancels
// between replicas (never mid-replica); every replica is attempted even
// if one fails.
func (s *Server) eachReplica(ctx context.Context, op func(*core.Replica) (int, error)) func() (int, error) {
	return func() (iter int, firstErr error) {
		for _, b := range s.backends {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("serve: cancelled before replica %d: %w", b.id, err)
			}
			s.pool.get(b)
			it, err := op(b.rep)
			s.pool.put(b)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			iter = it
		}
		return iter, firstErr
	}
}

// Refresh rolls every replica forward to the latest published model
// version, one replica at a time, and returns the restored iteration.
// It is zero-downtime (the pool keeps serving throughout) and safe
// against concurrent training: each replica pins the version it
// restores, and published snapshots are immutable, so no torn model
// can ever be observed.
//
// Every replica is attempted even if one fails; on error the pool may
// be serving mixed versions (Iteration and Version keep the old
// values) — retry Refresh or Close the server.
func (s *Server) Refresh(ctx context.Context) (int, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	switch {
	case s.fleet != nil:
		return s.control(ctx, s.fleet.Refresh)
	case s.group != nil:
		return s.control(ctx, s.group.Refresh)
	}
	return s.control(ctx, s.eachReplica(ctx, (*core.Replica).Refresh))
}

// control runs one control operation — Refresh or Rotate — under the
// server's closed check and publishes the iteration and version it
// left the pool on. A shard group or fleet quiesces its own pipeline(s)
// — queued requests wait, none are dropped — because the shards of one
// model must change version together: a half-refreshed pipeline would
// mix two versions inside a single forward pass. In fleet mode the
// drain-and-flip covers every replica group on every host at once.
func (s *Server) control(ctx context.Context, op func() (int, error)) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	iter, err := op()
	if err != nil {
		return 0, err
	}
	s.iter.Store(int64(iter))
	// Control calls are serialized and every replica just restored the
	// same version, so one can be read outside the pool.
	s.ver.Store(s.backends[0].version())
	return iter, nil
}

// RefreshSync re-reads the published model on every replica.
//
// Deprecated: RefreshSync is the v1 Refresh() signature kept as a thin
// shim; use Refresh(ctx), which adds cancellation between replicas.
func (s *Server) RefreshSync() (int, error) { return s.Refresh(context.Background()) }

// RotateKey rotates the data key end to end without a serving gap:
// the framework generates a fresh key, re-seals the training data
// matrix and PM mirror, and publishes a new snapshot under the new
// key; then every replica, one at a time, receives the key over a
// fresh attestation channel and restores the new snapshot while the
// rest of the pool keeps serving. It returns the published version
// now being served.
func (s *Server) RotateKey(ctx context.Context) (uint64, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if _, err := s.f.RotateKey(); err != nil {
		return 0, err
	}
	op := s.eachReplica(ctx, (*core.Replica).Rotate)
	switch {
	case s.fleet != nil:
		op = s.fleet.Rotate
	case s.group != nil:
		op = s.group.Rotate
	}
	if _, err := s.control(ctx, op); err != nil {
		return 0, err
	}
	return s.ver.Load(), nil
}

// Stats returns a snapshot of the serving counters, including the
// host-level EPC pressure at the moment of the call and — in shard
// mode — the pipeline's restore/stall/prefetch counters.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.Precision = s.Precision().String()
	st.EPCPressure = s.host.Overcommit()
	st.HostResidentBytes = s.host.Resident()
	switch {
	case s.fleet != nil:
		st.ShardRestores = s.fleet.Restores()
		st.ShardStalls = s.fleet.Stalls()
		st.ShardPrefetchWaits = s.fleet.PrefetchWaits()
		st.ShardPrefetched = s.fleet.PrefetchedRestores()
		st.FleetHosts = s.fleet.Hosts()
		st.FleetGroups = s.fleet.Groups()
		st.FleetHandoffs = s.fleet.HandoffTransfers()
		st.FleetHandoffBytes = s.fleet.HandoffBytes()
		st.FleetHostsDown = s.fleet.HostsDown()
		st.FleetDegraded = s.fleet.Degraded()
		st.FleetReplans = s.fleet.Replans()
		st.FleetEvictedGroups = s.fleet.EvictedGroups()
		st.FleetHandoffRetries = s.fleet.HandoffRetries()
	case s.group != nil:
		st.ShardRestores = s.group.Restores()
		st.ShardStalls = s.group.Stalls()
		st.ShardPrefetchWaits = s.group.PrefetchWaits()
		st.ShardPrefetched = s.group.PrefetchedRestores()
	}
	return st
}

// EPCPressure returns the host's current EPC overcommit fraction: 0
// while the aggregate working set of all co-located enclaves (training
// plus every replica) fits the usable EPC, positive once it does not —
// the regime where every request pays the shared paging knee.
func (s *Server) EPCPressure() float64 { return s.host.Overcommit() }

// Metrics returns the server's metric registry (Options.Metrics, or
// the private registry created when none was given): the serving
// counters, latency histogram, EPC gauges, and — in shard mode — the
// shard pipeline's per-shard series.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Tracer returns the server's request tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SlowTraces returns the retained slowest-request traces, slowest
// first: each carries the per-stage spans (queue, batch, and the
// pipeline's window/wait/restore/open/compute/seal) that tile the
// request's end-to-end latency.
func (s *Server) SlowTraces() []obs.TraceSnapshot { return s.tracer.Slowest() }
