package serve

import (
	"time"

	"plinius/internal/core"
	"plinius/internal/obs"
)

// Stats is a snapshot of a Server's serving counters.
type Stats struct {
	// BackendReport is the backends' summed report: the serving
	// precision, the shard pipeline's shape and restore counters, and
	// the fleet's fabric and failure-domain state — zero where a
	// backend has none of them.
	core.BackendReport
	// Requests is the number of requests served successfully.
	Requests uint64
	// Rejected counts admission-control rejections: requests that
	// arrived at a full queue and failed fast with ErrOverloaded.
	Rejected uint64
	// Expired counts queued requests dropped because their context
	// ended before dispatch; they never occupied a batch slot.
	Expired uint64
	// EPCShed counts requests shed by pressure-aware admission
	// (Options.MaxEPCPressure): rejected because the host EPC was
	// overcommitted past the limit, before touching the queue.
	EPCShed uint64
	// EPCPressure is the host's EPC overcommit fraction at snapshot
	// time: 0 while the aggregate working set of all enclaves on the
	// host fits the usable EPC, 0.5 when it is 50% past it. Nonzero
	// pressure means every enclave touch pays the shared paging knee.
	EPCPressure float64
	// HostResidentBytes is the aggregate enclave working set on the
	// host at snapshot time (training enclave plus all replicas).
	HostResidentBytes int
	// Batches is the number of micro-batches served.
	Batches uint64
	// AvgBatch is the mean micro-batch size.
	AvgBatch float64
	// AvgLatency and MaxLatency summarise request end-to-end time in
	// the server (enqueue to classification).
	AvgLatency time.Duration
	MaxLatency time.Duration
	// P50Latency, P95Latency and P99Latency are latency percentiles
	// from a fixed power-of-two-bucket histogram: each is the upper
	// bound of the bucket holding the percentile, so values are exact
	// to within a factor of two — constant memory however many
	// requests are served.
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	// Throughput is requests per second since the server started.
	Throughput float64
	// Uptime is the time since the server started.
	Uptime time.Duration
}

// statsCollector is the server's view onto its metrics registry. The
// latency fields of a snapshot (Requests, AvgLatency, MaxLatency, the
// percentiles) are all derived from ONE histogram snapshot taken under
// the histogram's lock, so they always describe the same set of served
// requests — a count can never be paired with a percentile from a
// different moment. The event counters (rejected, expired, shed) and
// the batch-size histogram are read in the same pass.
type statsCollector struct {
	start     time.Time
	hist      *obs.Histogram
	batchSize *obs.Histogram
	linger    *obs.Counter
	rejected  *obs.Counter
	expired   *obs.Counter
	epcShed   *obs.Counter
}

// newStatsCollector registers the serving metrics on reg and returns
// the collector writing to them. serve_requests_total and
// serve_batches_total are read-throughs onto the latency and batch-size
// histograms' counts, so each pair can never disagree in an exposition.
func newStatsCollector(reg *obs.Registry) statsCollector {
	c := statsCollector{
		start:     time.Now(),
		hist:      reg.Histogram("serve_request_seconds", "End-to-end request latency in the server, enqueue to classification."),
		batchSize: reg.CountHistogram("serve_batch_size", "Requests per served micro-batch."),
		linger:    reg.Counter("serve_batch_linger_seconds_total", "Time forming workers spent waiting for batch company beyond what was already queued."),
		rejected:  reg.Counter("serve_rejected_total", "Requests rejected at a full queue."),
		expired:   reg.Counter("serve_expired_total", "Queued requests dropped because their context ended before dispatch."),
		epcShed:   reg.Counter("serve_epc_shed_total", "Requests shed by pressure-aware admission while the host EPC was overcommitted."),
	}
	hist, batchSize := c.hist, c.batchSize
	reg.CounterFunc("serve_requests_total", "Requests served successfully.",
		func() float64 { return float64(hist.Count()) })
	reg.CounterFunc("serve_batches_total", "Micro-batches served.",
		func() float64 { return float64(batchSize.Count()) })
	return c
}

func (c *statsCollector) record(p Prediction) { c.hist.Observe(p.Latency) }

func (c *statsCollector) recordBatch(size int) { c.batchSize.ObserveCount(size) }

func (c *statsCollector) recordLinger(d time.Duration) { c.linger.Add(d.Seconds()) }

func (c *statsCollector) recordRejected() { c.rejected.Inc() }

func (c *statsCollector) recordExpired() { c.expired.Inc() }

func (c *statsCollector) recordEPCShed() { c.epcShed.Inc() }

// snapshot derives a Stats in a single read-side pass: one consistent
// histogram snapshot for every latency-derived field, one load per
// event counter.
func (c *statsCollector) snapshot() Stats {
	h := c.hist.Snapshot()
	s := Stats{
		Requests: h.Count,
		Rejected: uint64(c.rejected.Value()),
		Expired:  uint64(c.expired.Value()),
		EPCShed:  uint64(c.epcShed.Value()),
		Batches:  c.batchSize.Count(),
		Uptime:   time.Since(c.start),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Requests) / float64(s.Batches)
	}
	if h.Count > 0 {
		s.AvgLatency = h.Mean()
		s.MaxLatency = h.Max
		s.P50Latency = h.Quantile(0.50)
		s.P95Latency = h.Quantile(0.95)
		s.P99Latency = h.Quantile(0.99)
		if secs := s.Uptime.Seconds(); secs > 0 {
			s.Throughput = float64(h.Count) / secs
		}
	}
	return s
}
