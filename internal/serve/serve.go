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
// measured service time and the arrivals justify (see Server.form).
//
// The batches run on core.Backend values, one contract at three
// settings: a pool of whole-model enclave replicas (each a one-range
// core.ShardGroup, one batch at a time), one pipelined multi-range
// shard group for a model over the EPC headroom, or a multi-host fleet
// of shard groups (fleet.Fleet). Every backend restores its model,
// sealed, from an immutable published snapshot in PM, so parameters
// and inputs stay inside enclave memory exactly as in the
// single-enclave experiment. The server runs one worker per unit of
// backend window — per replica, or per batch a pipeline admits at once
// — and past construction never asks which kind it serves.
//
// Replicas join their framework's EPC host: on real SGX all enclaves
// on one machine share a single enclave page cache, so the pool's
// aggregate working set — training enclave plus every replica — is
// what decides whether serving runs on the fast side of the paging
// knee. Options.Workers = WorkersAuto sizes the pool from the host's
// remaining EPC headroom (one replica footprint per replica — its
// parameters, activation buffers for MaxBatch images and the
// per-enclave overhead — at least 1, at most GOMAXPROCS);
// Stats.EPCPressure reports the host's
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
// Refresh restores every backend to the latest published version, one
// backend at a time, with no batch running on the one that changes — a
// replica pool rolls forward replica by replica while the others keep
// serving, and a shard group or fleet drains and flips at once, because
// its shards must change version together. Either way it is race-free
// against concurrent training, because published snapshots are
// immutable and pinned during restore, and no accepted request is
// dropped. A backend whose data key is stale — after
// Framework.RotateKey — receives the current key over fresh
// attestation channels in the same step, so RotateKey is the
// framework's re-seal followed by Refresh.
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
// Framework.ReplicaFootprintAt(MaxBatch, precision) bytes), at least
// 1, at most GOMAXPROCS.
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
	// MaxQueueLatency caps the wait for batch company (default 2ms),
	// which lasts up to a quarter of the measured per-request service
	// time, longer for a lone request beside a batch being served, and
	// not at all when that quarter is too short (see Server.form).
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
	// Shards selects the backend: 0 (default) serves Workers
	// whole-model replicas; a positive count serves one shard group
	// pipelining the model across at most that many shard enclaves
	// (core.ShardGroup); ShardAuto does so only when a whole replica
	// exceeds the host's EPC headroom. A shard group ignores Workers:
	// the server runs one worker per batch its window admits.
	Shards int
	// ShardOverheadBytes is the parked per-shard-enclave working set
	// in shard mode (default core.DefaultShardOverheadBytes). Small
	// hosts shard at finer granularity with a smaller overhead.
	ShardOverheadBytes int
	// Fleet, when non-empty, makes the backend a multi-host fleet
	// (internal/fleet) instead of replicas or a single shard group:
	// the model is bin-packed across these hosts' EPC headrooms into
	// replica groups of pipelined shard enclaves joined by inter-host
	// channels, and micro-batches are routed least-loaded
	// across the groups. A fleet ignores Workers and Shards: the server
	// runs one worker per batch its aggregate window admits. A model
	// with no feasible placement fails construction with an error
	// matching fleet.ErrInfeasible.
	Fleet []*enclave.Host
	// Quantized serves the int8-quantized snapshot variant instead of
	// fp32: publication switches to quantized mode (every snapshot
	// carries the int8 variant alongside fp32), and every replica — or
	// the shard group, whose plan then packs int8 footprints — is built
	// with core.ShardOptions.Precision Int8 and restores the variant:
	// ~4x smaller sealed payloads and parameter footprints, so more
	// replicas fit the same headroom and ShardAuto shards only models
	// whose int8 replica does not fit, at a small documented accuracy
	// cost. A fleet serves fp32 and leaves publication fp32-only.
	Quantized bool
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
	// Explicit, so a shard plan that comes out one range keeps the
	// small shard overhead rather than a replica's.
	if o.ShardOverheadBytes <= 0 {
		o.ShardOverheadBytes = core.DefaultShardOverheadBytes
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

// slot is one unit of a backend's window — a whole-model replica, or
// one of the batches a shard group or fleet admits at once. A worker
// borrows a slot for the length of one batch.
type slot struct {
	id int
	b  core.Backend
}

// backendPool lends the slots out: to a worker for the length of one
// batch, and to Refresh / RotateKey every slot of one backend at a
// time — so a control call never runs beside a batch on the backend it
// changes, the other backends keep serving, and a batch formed
// meanwhile goes to whichever other slot comes free first.
type backendPool struct {
	mu   sync.Mutex
	cond sync.Cond // signalled on every put and release
	free []*slot   // LIFO: the slot that served last is the warmest
	// draining is the backend a control call is collecting the slots
	// of. Workers leave its slots alone: a worker that frees a slot and
	// forms its next batch at once would otherwise retake it before the
	// waiting control call runs, for as long as requests keep coming.
	draining core.Backend
}

// get borrows a free slot for one batch.
func (p *backendPool) get() *slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i := len(p.free) - 1; i >= 0; i-- {
			if sl := p.free[i]; sl.b != p.draining {
				p.free = append(p.free[:i], p.free[i+1:]...)
				return sl
			}
		}
		p.cond.Wait()
	}
}

func (p *backendPool) put(sl *slot) {
	p.mu.Lock()
	p.free = append(p.free, sl)
	p.mu.Unlock()
	// Broadcast: workers and a draining control call may all be parked
	// here, waiting for different slots.
	p.cond.Broadcast()
}

// drain borrows all n of b's slots, waiting out the batches that hold
// them. Control calls are serialized, so one backend drains at a time.
func (p *backendPool) drain(b core.Backend, n int) []*slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draining = b
	held := make([]*slot, 0, n)
	for {
		for i := len(p.free) - 1; i >= 0; i-- {
			if sl := p.free[i]; sl.b == b {
				p.free = append(p.free[:i], p.free[i+1:]...)
				held = append(held, sl)
			}
		}
		if len(held) == n {
			return held
		}
		p.cond.Wait()
	}
}

// release returns drained slots to the workers.
func (p *backendPool) release(held []*slot) {
	p.mu.Lock()
	p.draining = nil
	p.free = append(p.free, held...)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Server is a running inference service over one trained framework.
type Server struct {
	opts      Options
	f         *core.Framework
	host      *enclave.Host
	inputSize int
	backends  []core.Backend // the replicas, or the one shard group or fleet
	slots     []*slot        // one per unit of backend window, one worker each
	pool      backendPool

	reqCh   chan *request
	formMu  sync.Mutex   // held by the one worker forming a batch
	service atomic.Int64 // recent floor of batch service time per request, ns
	serving atomic.Int32 // batches dispatched whose backend has not returned
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
// (so serving sees exactly the weights f holds), then the backends —
// Options.Workers replicas, a shard group or a fleet — are attested,
// provisioned and restored from that pinned version. Training may
// continue concurrently: call Refresh to roll the backends forward to
// a later published version.
//
// ctx bounds server construction (attestation and restore); it does
// not affect the running server. A framework that cannot serve —
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

// build is New up to, not including, starting the workers. It is the
// one place that knows which kind of backend the server runs.
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
	// The backend kind: a fleet when Options.Fleet hosts are given, a
	// shard group for explicit Options.Shards, else the replica pool —
	// except that ShardAuto engages a shard group only when even one
	// whole-model replica would blow past the host's remaining EPC
	// headroom, the regime where a monolithic pool would drag every
	// co-located enclave over the paging knee.
	fleeted := len(opts.Fleet) > 0
	fp := replicaFootprint(f, opts)
	sharded := !fleeted && (opts.Shards > 0 || opts.Shards == ShardAuto && fp > 0 && fp > f.Host.Headroom())
	// Replicas and shard groups restore the int8 variant, so they turn
	// quantized publication on — a sticky switch — before the snapshot
	// below, so the first published version already carries the
	// variant. A fleet serves fp32.
	if opts.Quantized && !fleeted {
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
		if _, err := f.Publish(); err != nil {
			return nil, fmt.Errorf("serve: publish model to PM: %w", err)
		}
	}
	// Each server registers into a private registry (Server.Metrics), so
	// servers are built and torn down freely without colliding on series.
	reg := obs.NewRegistry()
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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: cancelled building backends: %w", err)
	}
	switch {
	case fleeted:
		fl, err := fleet.New(f, fleet.Options{
			Hosts:         opts.Fleet,
			Batch:         opts.MaxBatch,
			OverheadBytes: opts.ShardOverheadBytes,
			Seed:          opts.Seed,
			Metrics:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: fleet: %w", err)
		}
		s.add(fl)
	case sharded:
		so := core.ShardOptions{
			Batch:         opts.MaxBatch,
			Precision:     precision(opts),
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
		s.add(g)
	default:
		workers := opts.Workers
		if workers == WorkersAuto {
			workers = autoWorkers(f, fp)
		}
		for i := 0; i < workers; i++ {
			if err := ctx.Err(); err != nil {
				_ = s.closeBackends()
				return nil, fmt.Errorf("serve: cancelled building replica %d: %w", i, err)
			}
			// A replica is a one-range group; its private registry keeps
			// the pool's per-range series off the server's /metrics.
			rep, err := f.NewShardGroup(core.ShardOptions{
				Shards:    1,
				Batch:     opts.MaxBatch,
				Precision: precision(opts),
				Seed:      opts.Seed + int64(i),
			})
			if err != nil {
				_ = s.closeBackends()
				return nil, fmt.Errorf("serve: replica %d: %w", i, err)
			}
			s.add(rep)
		}
	}
	s.iter.Store(int64(s.backends[0].Iteration()))
	s.ver.Store(s.backends[0].Version())
	// Registered only now: serve_quantized reads the backends, and a
	// shared registry may be scraped while they are being built.
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
	return s, nil
}

// add makes b one of the server's backends, with one slot — and so one
// worker — per batch its window admits.
func (s *Server) add(b core.Backend) {
	s.backends = append(s.backends, b)
	for i := 0; i < b.Window(); i++ {
		s.slots = append(s.slots, &slot{id: len(s.slots), b: b})
	}
}

// start launches one worker per slot.
func (s *Server) start() {
	s.pool.cond.L = &s.pool.mu
	s.pool.free = append(s.pool.free, s.slots...)
	s.wg.Add(len(s.slots))
	for i := range s.slots {
		go s.worker(i)
	}
}

// precision is the parameter precision a replica pool or shard group
// serves.
func precision(opts Options) darknet.Precision {
	if opts.Quantized {
		return darknet.Int8
	}
	return darknet.FP32
}

// replicaFootprint is what one replica of the pool reserves: at the
// configured serving precision — a quantized pool restores the int8
// snapshot variant, so auto worker sizing and the ShardAuto gate see
// the ~4x smaller parameters and fit more replicas per host — with
// activation buffers for MaxBatch images.
func replicaFootprint(f *core.Framework, opts Options) int {
	return f.ReplicaFootprintAt(opts.MaxBatch, precision(opts))
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

// minLinger has two roles. It is the shortest wait for batch company
// worth starting: below it a closed-loop client loses more to the wait
// than the company could save, so the batch dispatches at once. And it
// is the quiet gap that ends a wait for more company: riders that come
// at all come close behind the request before them.
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
// lingers for company for min(MaxQueueLatency, S/4), S being the recent
// floor of batch service time per request served (see serveBatch): a
// rider spares the pool about S of work and costs the batch a quarter of
// that, while a server whose requests are quick to serve — one at a
// time, or amortised over batches that are already large, or because it
// has served nothing yet — has no wait worth starting and dispatches at
// once. A batch with company stops once minLinger passes with no
// arrival. A lone request beside a batch being served waits, up to
// MaxQueueLatency, until a quarter after it sees that batch return, for
// its callers' next requests: closed-loop callers out of step would
// otherwise stay so, each batch alone at nearly the cost of two. The
// linger polls the queue, yielding, since the netpoller rounds a timer's
// sub-millisecond wait up to 1 ms. An empty result means the queue is
// closed and drained.
func (s *Server) form(batch []*request) []*request {
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
	start, queued := time.Now(), len(batch)
linger:
	for until, busy := wait, int32(0); len(batch) < s.opts.MaxBatch; {
		select {
		case req, ok := <-s.reqCh:
			if !ok {
				break linger
			}
			batch = s.take(batch, req)
			until = min(wait, time.Since(start)+minLinger)
		default:
			since := time.Since(start)
			// A batch being served, or seen so at the last poll.
			if n := s.serving.Load(); len(batch) == 1 && (n > 0 || busy > 0) {
				until, busy = min(s.opts.MaxQueueLatency, since+wait), n
			}
			if since >= until {
				break linger
			}
			runtime.Gosched()
		}
	}
	s.stats.recordLinger(time.Since(start), len(batch)-queued)
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
		// One scratch trace collects each batch's pipeline spans
		// (window, then wait/restore/open/compute/seal per range),
		// folded into every rider's trace.
		bt = obs.NewTrace()
	)
	// The label attributes enclave compute in CPU profiles to the worker.
	pprof.Do(obs.ContextWithTrace(context.Background(), bt), pprof.Labels("worker", strconv.Itoa(id)), func(ctx context.Context) {
		for {
			s.formMu.Lock()
			batch = s.form(batch[:0])
			s.formMu.Unlock()
			// Unlock readied the worker waiting on formMu onto this P,
			// behind the batch about to run here: it would form the
			// next batch only once an idle P's thread woke to steal it
			// (on a VM tens of µs, varying run to run), and a request
			// arriving meanwhile would wait in the queue. Yielding lets
			// it park on reqCh first, where a send hands it the request
			// directly.
			runtime.Gosched()
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
	s.serving.Add(1)
	sl := s.pool.get()
	dispatch := time.Now()
	classes, err := sl.b.ClassifyBatchCtx(ctx, buf[:n*s.inputSize])
	now := time.Now()
	s.serving.Add(-1)
	var ver uint64
	if err == nil {
		ver = sl.b.Version()
	}
	s.pool.put(sl)
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
			Worker:       sl.id,
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
// in flight, tears down the backends and returns. Subsequent Classify
// and Close calls return ErrClosed.
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
	return s.closeBackends()
}

// closeBackends closes every backend and returns the first error.
func (s *Server) closeBackends() error {
	var firstErr error
	for _, b := range s.backends {
		if err := b.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Workers returns the number of serving workers: one per replica, or
// one per batch the shard pipeline or fleet admits at once.
func (s *Server) Workers() int { return len(s.slots) }

// report sums the backends' reports.
func (s *Server) report() core.BackendReport {
	var r core.BackendReport
	for _, b := range s.backends {
		r.Add(b.Report())
	}
	return r
}

// Shards returns the number of shard enclaves the model is pipelined
// across (per replica group in a fleet), 0 when serving whole-model
// replicas.
func (s *Server) Shards() int { return s.report().Shards }

// ShardsStreaming reports whether the shard pipeline streams parked
// layer ranges from PM per batch (the over-headroom regime). Always
// false when serving whole-model replicas.
func (s *Server) ShardsStreaming() bool { return s.report().Streaming }

// servingFleet returns the fleet the server serves through, nil when
// it serves replicas or a single shard group.
func (s *Server) servingFleet() *fleet.Fleet {
	fl, _ := s.backends[0].(*fleet.Fleet)
	return fl
}

// FleetHostReports returns the per-host fleet view (EPC budget, load,
// paging, placed shard ranges), nil when not serving through a fleet.
func (s *Server) FleetHostReports() []fleet.HostReport {
	if fl := s.servingFleet(); fl != nil {
		return fl.HostReports()
	}
	return nil
}

// Precision returns the parameter precision the server serves: Int8
// for a replica pool or shard group built with Options.Quantized, FP32
// otherwise.
func (s *Server) Precision() darknet.Precision { return s.report().Precision }

// Iteration returns the training iteration of the served model.
func (s *Server) Iteration() int { return int(s.iter.Load()) }

// Version returns the published model version the server serves (the
// lowest across replicas mid-refresh; all converge once a Refresh or
// RotateKey completes).
func (s *Server) Version() uint64 { return s.ver.Load() }

// Refresh rolls every backend forward to the latest published model
// version and returns the restored iteration. A backend whose enclaves
// hold an older data key than the framework's (Framework.RotateKey
// ran since they were keyed) first receives the current key over fresh
// attestation channels; the version it pins is always one sealed under
// the key it then holds, even when a rotation races the refresh. A
// replica pool rolls one replica at a time while the others keep
// serving; a shard group or fleet drains and flips at once (queued
// requests wait, none fail). Either way it is safe against concurrent
// training: every backend pins the version it restores, and published
// snapshots are immutable, so no torn model can ever be observed.
//
// Every backend is attempted even if one fails; a backend that fails
// keeps serving its old version under its old key, so on error the
// server may be serving mixed versions (Iteration and Version keep the
// old values) — retry Refresh or Close the server.
func (s *Server) Refresh(ctx context.Context) (int, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	return s.refresh(ctx)
}

// refresh runs Refresh on each backend in turn, every slot of that
// backend borrowed from the pool for the call, so no batch runs on a
// backend while it changes version. With one slot per replica that is
// a one-at-a-time rollout the rest of the pool serves through; a shard
// group or fleet, whose shards must change version together, also
// quiesces internally. ctx cancels between backends, never
// mid-backend. On success refresh publishes the iteration and version
// it left the server on. The caller holds ctlMu.
func (s *Server) refresh(ctx context.Context) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	var (
		iter     int
		firstErr error
	)
	for i, b := range s.backends {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("serve: cancelled before backend %d: %w", i, err)
		}
		n := 0
		for _, sl := range s.slots {
			if sl.b == b {
				n++
			}
		}
		held := s.pool.drain(b, n)
		it, err := b.Refresh()
		s.pool.release(held)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		iter = it
	}
	if firstErr != nil {
		return 0, firstErr
	}
	s.iter.Store(int64(iter))
	// Control calls are serialized and every backend just restored the
	// same version, so one can be read outside the pool.
	s.ver.Store(s.backends[0].Version())
	return iter, nil
}

// RotateKey rotates the data key end to end without a serving gap:
// Framework.RotateKey generates a fresh key, re-seals the training
// data matrix and PM mirror, and publishes a new snapshot under the
// new key; then Refresh gives every backend the key over fresh
// attestation channels and restores the new snapshot. It returns the
// published version now being served.
func (s *Server) RotateKey(ctx context.Context) (uint64, error) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if _, err := s.f.RotateKey(); err != nil {
		return 0, err
	}
	if _, err := s.refresh(ctx); err != nil {
		return 0, err
	}
	return s.ver.Load(), nil
}

// Stats returns a snapshot of the serving counters, including the
// host-level EPC pressure at the moment of the call and the backends'
// summed report (precision, pipeline shape, shard and fleet counters).
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.EPCPressure = s.host.Overcommit()
	st.HostResidentBytes = s.host.Resident()
	st.BackendReport = s.report()
	return st
}

// EPCPressure returns the host's current EPC overcommit fraction: 0
// while the aggregate working set of all co-located enclaves (training
// plus every replica) fits the usable EPC, positive once it does not —
// the regime where every request pays the shared paging knee.
func (s *Server) EPCPressure() float64 { return s.host.Overcommit() }

// Metrics returns the server's private metric registry: the serving
// counters, latency histogram, EPC gauges, and — in shard mode — the
// shard pipeline's per-shard series.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SlowTraces returns the retained slowest-request traces, slowest
// first: each carries the per-stage spans (queue, batch, and the
// pipeline's window/wait/restore/open/compute/seal) that tile the
// request's end-to-end latency.
func (s *Server) SlowTraces() []obs.TraceSnapshot { return s.tracer.Slowest() }
