// Command plinius-serve trains a CNN in the enclave and serves
// classification requests from it: dynamic micro-batching in front of
// a pool of enclave worker replicas, each restored from an immutable
// published model snapshot in PM, with deadline-aware admission
// control (a full queue rejects instead of blocking).
//
// With -addr it exposes a minimal HTTP endpoint:
//
//	POST /classify {"image":[784 floats in [0,1]]}
//	  -> {"class":7,"latency_us":412,"batch_size":5,"worker":2,"model_version":1}
//	POST /refresh  -> roll all replicas to the latest published model
//	POST /rotate   -> rotate the data key end to end, no serving gap
//	GET  /stats    -> serving counters (plus a per-host fleet section
//	                  with -fleet-hosts)
//
// With -fleet-hosts N the model is served across a fleet of N hosts:
// its shard plan is bin-packed over their EPC headrooms (-fleet-epc
// sets each host's budget in MiB) and stage hand-offs cross attested
// inter-host channels. A model that cannot be packed at all starts a
// degraded listener whose /classify answers 503 with a distinct
// "fleet placement infeasible" body, so clients can tell a capacity
// misconfiguration from a transient overload.
//
//	GET  /metrics  -> Prometheus text exposition (process + server registries)
//	GET  /trace    -> JSON dump of the N slowest requests with per-stage spans
//	GET  /healthz
//
// With -pprof the mux additionally mounts net/http/pprof under
// /debug/pprof/; serving workers and shard stage goroutines carry pprof
// labels (worker, shard), so CPU profiles attribute enclave compute to
// pipeline stages.
//
// SIGINT/SIGTERM shuts down gracefully: the HTTP listener stops, the
// request queue drains (every accepted request is answered), and the
// replica enclaves are closed.
//
// Without -addr it runs an in-process load generator and prints the
// throughput/latency baseline. By default the load is closed-loop:
// -clients callers that each wait for a reply before sending again, so
// a slow server is offered less.
//
//	plinius-serve -workers 4 -max-batch 32 -requests 20000 -clients 64
//
// With -rate the load is open-loop: requests arrive on a Poisson
// schedule at that many per second whatever the server is doing, each
// latency is timed from when the request was due (so a stall is charged
// to every request it delays), and the generator reports how late it
// ran at worst.
//
//	plinius-serve -workers 2 -requests 3000 -rate 150
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"plinius"
)

func main() {
	var (
		iters      = flag.Int("iters", 50, "training iterations before serving")
		layers     = flag.Int("layers", 2, "convolutional layers")
		filters    = flag.Int("filters", 8, "filters per conv layer")
		batch      = flag.Int("batch", 64, "training batch size")
		dataset    = flag.Int("dataset", 2000, "synthetic training samples")
		seed       = flag.Int64("seed", 42, "random seed")
		workers    = flag.Int("workers", 4, "enclave inference replicas; 0 auto-sizes from the host's remaining EPC headroom")
		shards     = flag.Int("shards", 0, "pipeline the model across at most this many shard enclaves; -1 shards automatically when a whole replica exceeds the host's EPC headroom")
		fleetHosts = flag.Int("fleet-hosts", 0, "serve across a fleet of this many hosts: the model's shard plan is bin-packed over their EPC headrooms, with attested inter-host hand-off channels (0 disables)")
		fleetEPC   = flag.Int("fleet-epc", 0, "per-fleet-host usable EPC in MiB (0 uses the paper's 93.5 MiB budget)")
		maxEPC     = flag.Float64("max-epc-pressure", 0, "shed requests while the host EPC is overcommitted past this fraction (0 disables)")
		quantized  = flag.Bool("quantized", false, "serve the int8-quantized snapshot variant: ~4x smaller sealed payloads and replica EPC footprints (whole-model replica pool only)")
		maxBatch   = flag.Int("max-batch", 32, "micro-batch size cap")
		maxLatency = flag.Duration("max-latency", 2*time.Millisecond, "upper bound on the wait for batch company; an idle worker dispatches immediately")
		queueDepth = flag.Int("queue-depth", 1024, "request queue bound; beyond it requests are rejected (ErrOverloaded)")
		addr       = flag.String("addr", "", "HTTP listen address (e.g. :8080); empty runs the load generator")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP mux")
		requests   = flag.Int("requests", 10000, "load-generator request count")
		clients    = flag.Int("clients", 64, "load-generator concurrent clients (closed loop)")
		rate       = flag.Float64("rate", 0, "load-generator arrival rate in req/s: open loop, Poisson arrivals, latency timed from each request's due time (0 keeps the closed loop of -clients)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workers == 0 {
		*workers = plinius.WorkersAuto
	}
	if *shards < 0 {
		*shards = plinius.ShardAuto
	}
	err := run(ctx, *iters, *layers, *filters, *batch, *dataset, *seed,
		*workers, *shards, *fleetHosts, *fleetEPC, *maxBatch, *maxLatency, *queueDepth, *maxEPC, *quantized, *addr, *pprofOn, *requests, *clients, *rate)
	switch {
	case errors.Is(err, context.Canceled):
		// Interrupted before or during serving: the shutdown was
		// graceful (training stopped mirror-consistently, accepted
		// requests drained), so exit cleanly like the serving path.
		fmt.Println("interrupted: shut down gracefully")
	case err != nil:
		fmt.Fprintln(os.Stderr, "plinius-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, iters, layers, filters, batch, dataset int, seed int64,
	workers, shards, fleetHosts, fleetEPC, maxBatch int, maxLatency time.Duration, queueDepth int, maxEPC float64, quantized bool, addr string, pprofOn bool, requests, clients int, rate float64) error {
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(layers, filters, batch),
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	ds := plinius.SyntheticDataset(dataset, seed)
	if err := f.LoadDataset(ds); err != nil {
		return err
	}
	fmt.Printf("training %d iterations in the enclave...\n", iters)
	if err := f.Train(ctx, plinius.StopAt(iters)); err != nil {
		return err
	}

	var fleet []*plinius.Host
	if fleetHosts > 0 {
		var hostOpts []plinius.HostOption
		if fleetEPC > 0 {
			hostOpts = append(hostOpts, plinius.WithHostEPC(fleetEPC<<20))
		}
		fleet = make([]*plinius.Host, fleetHosts)
		for i := range fleet {
			fleet[i] = plinius.NewHost(plinius.SGXEmlPM(), hostOpts...)
		}
	}
	srv, err := plinius.Serve(ctx, f, plinius.ServerOptions{
		Workers:         workers,
		Shards:          shards,
		Fleet:           fleet,
		MaxBatch:        maxBatch,
		MaxQueueLatency: maxLatency,
		QueueDepth:      queueDepth,
		Seed:            seed,
		MaxEPCPressure:  maxEPC,
		Quantized:       quantized,
	})
	if err != nil {
		// An infeasible placement is an operator-visible capacity
		// condition, not a crash: with an HTTP address, come up anyway
		// and answer requests with a distinct 503 body until the fleet
		// is resized.
		if errors.Is(err, plinius.ErrInfeasiblePlacement) && addr != "" {
			return serveInfeasible(ctx, addr, err)
		}
		return err
	}
	if srv.FleetSize() > 0 {
		fmt.Printf("serving model version %d (iteration %d) across a %d-host fleet: %d replica group(s) of %d shard(s), window %d, max batch %d, queue depth %d\n",
			srv.Version(), srv.Iteration(), srv.FleetSize(), srv.FleetGroups(), srv.Shards(), srv.Workers(), maxBatch, queueDepth)
		for _, hr := range srv.FleetHostReports() {
			fmt.Printf("  host %d: %d bytes resident / %d usable EPC, shards %v\n",
				hr.Host, hr.ResidentBytes, hr.UsableEPC, hr.Shards)
		}
	} else if srv.Shards() > 0 {
		fmt.Printf("serving model version %d (iteration %d) pipelined across %d shard enclaves (window %d, streaming=%v, max batch %d, queue depth %d)\n",
			srv.Version(), srv.Iteration(), srv.Shards(), srv.Workers(), srv.ShardsStreaming(), maxBatch, queueDepth)
	} else {
		fmt.Printf("serving model version %d (iteration %d) on %d enclave replicas (%s, max batch %d, max queue latency %v, queue depth %d, EPC pressure %.2f)\n",
			srv.Version(), srv.Iteration(), srv.Workers(), srv.Precision(), maxBatch, maxLatency, queueDepth, srv.EPCPressure())
	}

	switch {
	case addr != "":
		err = serveHTTP(ctx, srv, addr, pprofOn)
	case rate > 0:
		err = openLoadgen(ctx, srv, ds, requests, rate, seed)
	default:
		err = loadgen(ctx, srv, ds, requests, clients)
	}
	// Graceful teardown either way: drain everything accepted, then
	// close the replica enclaves.
	if cerr := srv.Close(); cerr != nil && !errors.Is(cerr, plinius.ErrServerClosed) && err == nil {
		err = cerr
	}
	return err
}

// serveInfeasible is the degraded HTTP server run when the fleet
// placement planner found no packing of the model onto the configured
// hosts: /classify answers with a distinct 503 body naming the
// condition (clients can tell "resize the fleet" from a transient
// overload), /healthz reports the degraded state, and everything runs
// until ctx is cancelled so the operator can probe the endpoints.
func serveInfeasible(ctx context.Context, addr string, perr error) error {
	body := fmt.Sprintf("fleet placement infeasible: %v", perr)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, body, http.StatusServiceUnavailable)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "degraded: "+body, http.StatusServiceUnavailable)
	})
	hs := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("%s\nlistening on %s in degraded mode (503 on /classify until the fleet is resized)\n", body, addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// classifyStatus maps a serving error to an HTTP status. EPC-pressure
// shedding is checked before the generic overload path it wraps: it is
// a capacity condition of the machine, not of the queue, so it maps to
// 503 (with Retry-After, see the handler) rather than 429.
func classifyStatus(err error) int {
	switch {
	case errors.Is(err, plinius.ErrEPCPressure):
		return http.StatusServiceUnavailable
	case errors.Is(err, plinius.ErrFleetUnavailable), errors.Is(err, plinius.ErrHostDown):
		// Fleet hosts are down and a replan is in progress (or has run
		// out of survivors): transient, distinct from overload — clients
		// back off and retry once the fleet rejoins or finishes
		// replanning.
		return http.StatusServiceUnavailable
	case errors.Is(err, plinius.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, plinius.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, plinius.ErrBadImage):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// serveHTTP exposes the server over a minimal JSON HTTP API until ctx
// is cancelled, then shuts the listener down gracefully.
func serveHTTP(ctx context.Context, srv *plinius.Server, addr string, pprofOn bool) error {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Image []float32 `json:"image"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pred, err := srv.Classify(r.Context(), req.Image)
		if err != nil {
			switch {
			case errors.Is(err, plinius.ErrEPCPressure):
				// Shed for EPC pressure: the host is overcommitted, not
				// the queue — tell clients when to come back.
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, plinius.ErrFleetUnavailable), errors.Is(err, plinius.ErrHostDown):
				// Fleet outage in progress: the replan completes (or a
				// host rejoins) on the order of seconds, not instantly.
				w.Header().Set("Retry-After", "2")
			}
			http.Error(w, err.Error(), classifyStatus(err))
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"class":         pred.Class,
			"latency_us":    pred.Latency.Microseconds(),
			"batch_size":    pred.BatchSize,
			"worker":        pred.Worker,
			"model_version": pred.ModelVersion,
		})
	})
	mux.HandleFunc("POST /refresh", func(w http.ResponseWriter, r *http.Request) {
		iter, err := srv.Refresh(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"iteration": iter, "model_version": srv.Version()})
	})
	mux.HandleFunc("POST /rotate", func(w http.ResponseWriter, r *http.Request) {
		ver, err := srv.RotateKey(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"model_version": ver})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		st := srv.Stats()
		stats := map[string]any{
			"precision":            st.Precision,
			"requests":             st.Requests,
			"rejected":             st.Rejected,
			"expired":              st.Expired,
			"epc_shed":             st.EPCShed,
			"epc_pressure":         st.EPCPressure,
			"host_resident_bytes":  st.HostResidentBytes,
			"batches":              st.Batches,
			"avg_batch":            st.AvgBatch,
			"avg_latency_us":       st.AvgLatency.Microseconds(),
			"p50_latency_us":       st.P50Latency.Microseconds(),
			"p95_latency_us":       st.P95Latency.Microseconds(),
			"p99_latency_us":       st.P99Latency.Microseconds(),
			"max_latency_us":       st.MaxLatency.Microseconds(),
			"req_per_sec":          st.Throughput,
			"uptime_sec":           st.Uptime.Seconds(),
			"model_version":        srv.Version(),
			"shards":               srv.Shards(),
			"shard_streaming":      srv.ShardsStreaming(),
			"shard_pm_restores":    st.ShardRestores,
			"shard_stalls":         st.ShardStalls,
			"shard_prefetch_waits": st.ShardPrefetchWaits,
			"shard_prefetched":     st.ShardPrefetched,
		}
		if st.FleetHosts > 0 {
			// Per-host fleet section: each host's resident working set,
			// EPC pressure and the shard ranges placed on it.
			stats["fleet_hosts"] = st.FleetHosts
			stats["fleet_groups"] = st.FleetGroups
			stats["fleet_handoffs"] = st.FleetHandoffs
			stats["fleet_handoff_bytes"] = st.FleetHandoffBytes
			stats["fleet_hosts_down"] = st.FleetHostsDown
			stats["fleet_degraded"] = st.FleetDegraded
			stats["fleet_replans"] = st.FleetReplans
			stats["fleet_evicted_groups"] = st.FleetEvictedGroups
			stats["fleet_handoff_retries"] = st.FleetHandoffRetries
			stats["fleet"] = srv.FleetHostReports()
		}
		json.NewEncoder(w).Encode(stats)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Two registries, one exposition: the process-wide layer
		// metrics (enclave paging, sealing, PM, mirror, compute) and
		// the server's own (request counters, latency histogram, and
		// in shard mode the per-shard pipeline series).
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := plinius.Metrics().WritePrometheus(w); err != nil {
			return
		}
		_ = srv.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"slowest": srv.SlowTraces()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		reports := srv.FleetHostReports()
		if reports == nil {
			// Single-host modes: the process answering is the health.
			fmt.Fprintln(w, "ok")
			return
		}
		type hostHealth struct {
			Host int  `json:"host"`
			Up   bool `json:"up"`
		}
		hosts := make([]hostHealth, len(reports))
		down := 0
		for i, r := range reports {
			hosts[i] = hostHealth{Host: r.Host, Up: !r.Down}
			if r.Down {
				down++
			}
		}
		degraded := srv.FleetDegraded()
		status := "ok"
		code := http.StatusOK
		switch {
		case down == len(reports):
			// Nothing left to serve on: the health endpoint itself says
			// unavailable so balancers stop sending traffic here.
			status = "down"
			code = http.StatusServiceUnavailable
		case degraded:
			// Still serving (streaming on survivors) — healthy enough to
			// keep traffic, but the state is visible to operators.
			status = "degraded"
		case down > 0:
			status = "partial"
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{
			"status":     status,
			"degraded":   degraded,
			"hosts_down": down,
			"hosts":      hosts,
		})
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}

	hs := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("listening on %s (SIGINT/SIGTERM drains and exits)\n", addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down: draining in-flight requests...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}

// loadgen drives the in-process server with concurrent clients and
// prints the serving baseline. Rejected requests (admission control)
// are counted, not treated as failures.
func loadgen(ctx context.Context, srv *plinius.Server, ds *plinius.Dataset, requests, clients int) error {
	fmt.Printf("load generator: %d requests from %d concurrent clients\n", requests, clients)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				if ctx.Err() != nil {
					return
				}
				_, err := srv.Classify(ctx, ds.Image(i%ds.N))
				switch {
				case err == nil, errors.Is(err, plinius.ErrOverloaded):
					// Served or shed; both are expected under load.
				case errors.Is(err, context.Canceled):
					return
				default:
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	st := printServed(srv, time.Since(start))
	fmt.Printf("  latency    : avg %v, p50 %v, p95 %v, p99 %v, max %v\n",
		st.AvgLatency.Round(time.Microsecond), st.P50Latency.Round(time.Microsecond),
		st.P95Latency.Round(time.Microsecond), st.P99Latency.Round(time.Microsecond),
		st.MaxLatency.Round(time.Microsecond))
	if st.FleetHosts > 0 {
		fmt.Printf("  fleet      : %d hosts, %d groups, %d shards, %d hand-offs (%d bytes)\n",
			st.FleetHosts, st.FleetGroups, srv.Shards(), st.FleetHandoffs, st.FleetHandoffBytes)
	} else if srv.Shards() > 0 {
		fmt.Printf("  sharding   : %d shards, window %d, streaming=%v, %d PM range restores\n",
			srv.Shards(), srv.Workers(), srv.ShardsStreaming(), srv.ShardRestores())
	}
	return nil
}

// printServed prints what a load run got out of the server in elapsed.
func printServed(srv *plinius.Server, elapsed time.Duration) plinius.ServerStats {
	st := srv.Stats()
	fmt.Printf("served %d requests in %v (%d rejected by admission control, %d shed for EPC pressure)\n",
		st.Requests, elapsed.Round(time.Millisecond), st.Rejected, st.EPCShed)
	fmt.Printf("  throughput : %.0f req/s\n", float64(st.Requests)/elapsed.Seconds())
	fmt.Printf("  micro-batch: %.1f avg over %d batches\n", st.AvgBatch, st.Batches)
	return st
}

// openLoadgen offers the server a Poisson arrival stream at rate
// requests per second, whatever the server is doing: one pacer sleeps to
// each due time and hands the request to a goroutine that only blocks in
// Classify. Latency runs from the due time, so a stall is charged to
// every request it delays (no coordinated omission), and the worst
// lateness of the pacer itself is reported so that a generator that
// could not keep the schedule is not mistaken for a slow server.
// Outstanding requests need no cap of their own: the server's bounded
// queue rejects what it cannot hold.
func openLoadgen(ctx context.Context, srv *plinius.Server, ds *plinius.Dataset, requests int, rate float64, seed int64) error {
	fmt.Printf("load generator: %d requests, open loop at %g req/s (Poisson arrivals)\n", requests, rate)
	var (
		rng     = rand.New(rand.NewSource(seed))
		lat     = make([]time.Duration, requests) // zero: not served
		wg      sync.WaitGroup
		errOnce sync.Once
		failed  error
		lateMax time.Duration
		due     time.Duration
	)
	start := time.Now()
	for i := 0; i < requests && ctx.Err() == nil; i++ {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		dueAt := start.Add(due)
		time.Sleep(time.Until(dueAt))
		lateMax = max(lateMax, time.Since(dueAt))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Classify(ctx, ds.Image(i%ds.N))
			switch {
			case err == nil:
				lat[i] = time.Since(dueAt)
			case errors.Is(err, plinius.ErrOverloaded), errors.Is(err, context.Canceled):
				// Shed, or interrupted: expected, and not a latency.
			default:
				errOnce.Do(func() { failed = err })
			}
		}(i)
	}
	wg.Wait()
	if failed != nil {
		return failed
	}
	printServed(srv, time.Since(start))
	served := lat[:0]
	for _, d := range lat {
		if d > 0 {
			served = append(served, d)
		}
	}
	if len(served) == 0 {
		return nil
	}
	sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })
	q := func(p float64) time.Duration { return served[int(p*float64(len(served)-1))].Round(time.Microsecond) }
	fmt.Printf("  latency    : from due time, p50 %v, p95 %v, p99 %v, max %v\n", q(0.50), q(0.95), q(0.99), q(1))
	fmt.Printf("  generator  : at worst %v late sending a request\n", lateMax.Round(time.Microsecond))
	return nil
}
