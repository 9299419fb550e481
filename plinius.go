// Package plinius is the public API of the Plinius reproduction: a
// secure and persistent machine-learning model training framework
// (Yuhala et al., DSN 2021) built from an emulated Intel SGX enclave, an
// emulated persistent-memory device, the SGX-Romulus durable-transaction
// library, the SGX-Darknet CNN framework, and the paper's encrypted
// mirroring mechanism.
//
// Quick start (v2, context-first API):
//
//	f, err := plinius.New(plinius.Config{
//	    ModelConfig: plinius.MNISTConfig(5, 16, 128),
//	})
//	ds := plinius.SyntheticDataset(60000, 42)
//	err = f.LoadDataset(ds)
//
//	// Train until iteration 500 or until ctx is cancelled; a
//	// cancelled run stops at a mirror-consistent boundary, so it is
//	// always recoverable.
//	err = f.Train(ctx, plinius.StopAt(500),
//	    plinius.WithProgress(func(iter int, loss float32) { ... }))
//
// A Framework survives crashes: call Crash to simulate a power failure
// or spot-instance reclamation, Recover to restart the process, and
// training resumes from the last mirrored iteration with the training
// data still byte-addressable in PM.
//
// Serving is built on versioned model publication: Serve publishes the
// current parameters as an immutable snapshot in PM and restores a pool
// of attested enclave replicas from it. Training may continue while the
// server runs; Server.Refresh rolls the pool to the latest published
// version and Server.RotateKey re-provisions the data key, both with
// zero serving downtime:
//
//	srv, err := plinius.Serve(ctx, f, plinius.ServerOptions{Workers: 4})
//	pred, err := srv.Classify(reqCtx, image) // ErrOverloaded when saturated
//	go f.Train(trainCtx)                     // keep training concurrently
//	iter, err := srv.Refresh(ctx)            // serve the newer model
//	ver, err := srv.RotateKey(ctx)           // new data key, no gap
//
// See the examples directory, and cmd/plinius-bench for the paper
// ledger: every number of the paper's evaluation, measured here and
// asserted against a band.
package plinius

import (
	"context"
	"io"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/fleet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
	"plinius/internal/serve"
	"plinius/internal/spot"
)

// Core framework types.
type (
	// Config parameterises a Framework; see the field docs in the
	// underlying type.
	Config = core.Config
	// Framework is a live Plinius instance.
	Framework = core.Framework
	// TrainOption configures one Train run (StopAt, WithProgress).
	TrainOption = core.TrainOption
	// ServerProfile bundles one evaluation machine's cost models.
	ServerProfile = core.ServerProfile
	// Host is the unit of EPC ownership: all enclaves on one machine —
	// a framework's training enclave, its serving replicas, co-located
	// frameworks placed there via Config.Host — share its usable-EPC
	// budget, and the paging knee is charged on their joint working
	// set, as on real SGX.
	Host = enclave.Host
	// HostStats counts host-level EPC activity.
	HostStats = enclave.HostStats
	// StepTiming is a save/restore latency breakdown (Fig. 7 bars).
	StepTiming = core.StepTiming
	// SpotTrainer adapts a Framework to the spot simulator.
	SpotTrainer = core.SpotTrainer
	// Dataset is a labelled image set.
	Dataset = mnist.Dataset
	// SpotTrace is a spot-instance price trace.
	SpotTrace = spot.Trace
	// SpotConfig parameterises a spot training simulation.
	SpotConfig = spot.Config
	// SpotResult summarises a spot training simulation.
	SpotResult = spot.Result
)

// Sentinel errors re-exported for matching with errors.Is.
var (
	ErrNoDataset   = core.ErrNoDataset
	ErrCrashedDown = core.ErrCrashedDown
	ErrNotCrashed  = core.ErrNotCrashed
)

// Training options for Framework.Train (the v2 context-first API).
var (
	// StopAt stops the run once the model has completed the given
	// iteration count; without it Train runs until ctx is cancelled.
	StopAt = core.StopAt
	// WithProgress installs a per-iteration loss hook.
	WithProgress = core.WithProgress
)

// New builds a Framework: enclave creation, remote attestation and key
// provisioning, PM mapping through SGX-Romulus, and enclave model
// construction.
func New(cfg Config) (*Framework, error) { return core.New(cfg) }

// SetScalarKernels forces the single-threaded reference kernels, for
// before/after benchmarking; the parallel kernels are bit-identical to
// them, so it only trades speed.
var SetScalarKernels = darknet.SetScalarKernels

// HostOption configures a Host built with NewHost.
type HostOption = enclave.HostOption

// WithHostEPC overrides a host's usable-EPC budget (default the
// paper's 93.5 MiB) — smaller serving machines, or bigger ice-lake
// class ones.
func WithHostEPC(n int) HostOption { return enclave.WithHostEPC(n) }

// NewHost creates a machine to co-locate frameworks on: every enclave
// created on it (pass the host via Config.Host) shares one usable-EPC
// budget, so jointly overcommitting tenants pay the shared paging knee
// even when each fits alone. Frameworks built without Config.Host get
// a private host — the paper's one-enclave-per-machine setup.
func NewHost(p ServerProfile, opts ...HostOption) *Host {
	return enclave.NewHost(p.Enclave, opts...)
}

// WorkersAuto, as ServerOptions.Workers, sizes the replica pool from
// the EPC headroom remaining on the framework's host.
const WorkersAuto = serve.WorkersAuto

// ShardAuto, as ServerOptions.Shards, pipelines the model across shard
// enclaves whenever a whole-model replica would exceed the host's EPC
// headroom: the model is split into contiguous layer ranges, hot
// ranges are bounded to the headroom, and parked ranges stream back
// from the pinned published snapshot in PM — so an over-EPC model
// serves without dragging the host over the paging knee.
const ShardAuto = serve.ShardAuto

// SGXEmlPM returns the paper's sgx-emlPM server profile (real SGX, PM
// emulated on a ramdisk).
func SGXEmlPM() ServerProfile { return core.SGXEmlPM() }

// EmlSGXPM returns the paper's emlSGX-PM server profile (SGX in
// simulation mode, real Optane PM).
func EmlSGXPM() ServerProfile { return core.EmlSGXPM() }

// MNISTConfig returns the Darknet .cfg text of an n-conv-layer LReLU
// CNN for 28x28 grayscale 10-class inputs — the paper's model family.
func MNISTConfig(convLayers, filters, batch int) string {
	return darknet.MNISTConfig(convLayers, filters, batch)
}

// SyntheticModelConfig returns a model config with approximately the
// given parameter footprint in bytes (the Fig. 7 size sweep).
func SyntheticModelConfig(targetBytes int) (string, error) {
	return core.SyntheticModelConfig(targetBytes)
}

// SyntheticDataset generates n labelled synthetic digit images
// deterministically from seed (the repository's offline stand-in for
// MNIST; ReadIDXDataset accepts real MNIST files).
func SyntheticDataset(n int, seed int64) *Dataset { return mnist.Synthetic(n, seed) }

// ReadIDXDataset reads paired IDX image and label streams (the real
// MNIST file format).
func ReadIDXDataset(images, labels io.Reader) (*Dataset, error) {
	return mnist.ReadIDX(images, labels)
}

// WriteIDXDataset serialises a dataset as paired IDX image and label
// streams (the real MNIST file format).
func WriteIDXDataset(images, labels io.Writer, ds *Dataset) error {
	if err := mnist.WriteIDXImages(images, ds); err != nil {
		return err
	}
	return mnist.WriteIDXLabels(labels, ds)
}

// SyntheticSpotTrace generates a spot price trace with the paper's
// 5-minute interval structure.
func SyntheticSpotTrace(points int, base, volatility float64, seed int64) SpotTrace {
	return spot.Synthetic(points, base, volatility, seed)
}

// ParseSpotTrace reads a "minutes,price" CSV trace.
func ParseSpotTrace(r io.Reader) (SpotTrace, error) { return spot.ParseCSV(r) }

// RunSpot drives a trainer through a price trace, killing and resuming
// it as the market price crosses the bid (Fig. 10).
func RunSpot(t SpotTrace, cfg SpotConfig, tr spot.Trainer) (SpotResult, error) {
	return spot.Run(t, cfg, tr)
}

// Secure inference serving: request-level classification with dynamic
// micro-batching over a pool of enclave worker replicas, each restored
// from an immutable published model snapshot in PM (the production
// shape of the paper's §VI secure-classification experiment).
type (
	// Server is a running secure inference service.
	Server = serve.Server
	// ServerOptions parameterises a Server (workers, batching, queue).
	// MaxQueueLatency is an upper bound on the wait for batch company:
	// an idle worker dispatches immediately, and no request waits
	// longer than a quarter of the measured per-request service time.
	ServerOptions = serve.Options
	// Prediction is the answer to one classification request.
	Prediction = serve.Prediction
	// ServerStats is a snapshot of a Server's counters.
	ServerStats = serve.Stats
	// ShardGroup pipelines one model across shard enclaves, each owning
	// a contiguous layer range (Framework.NewShardGroup); a serving
	// replica (Framework.NewReplica) is the one-range group.
	ShardGroup = core.ShardGroup
	// ShardOptions parameterises Framework.NewShardGroup.
	ShardOptions = core.ShardOptions
	// ShardRange is a contiguous layer range of a sharded model.
	ShardRange = darknet.ShardRange
	// Precision is a serving parameter precision (FP32 or Int8); see
	// ServerOptions.Quantized and Server.Precision.
	Precision = darknet.Precision
)

// Serving parameter precisions. Int8 is the quantized snapshot variant:
// per-layer symmetric int8 weights published alongside the fp32
// snapshot (Framework.SetPublishQuantized, ServerOptions.Quantized),
// with ~4x smaller sealed payloads and EPC footprints. Replica pools
// and shard groups serve it (ShardOptions.Precision); fleets serve
// fp32.
const (
	FP32 = darknet.FP32
	Int8 = darknet.Int8
)

// Serving errors re-exported for matching with errors.Is.
var (
	ErrServerClosed     = serve.ErrClosed
	ErrBadImage         = serve.ErrBadImage
	ErrOverloaded       = serve.ErrOverloaded
	ErrEPCPressure      = serve.ErrEPCPressure
	ErrNotServable      = serve.ErrNotServable
	ErrNoServableModel  = core.ErrNoServableModel
	ErrShardGroupClosed = core.ErrShardGroupClosed
)

// Multi-host serving fabric: one logical model served across many
// hosts. A placement planner bin-packs the model's shard plan over the
// fleet's EPC headrooms (recording the placement durably, so a
// re-created fleet restores it), attested inter-host channels carry
// sealed activations between shard stages on different hosts, and a
// least-loaded micro-batch router spreads requests over replica
// groups. Use it directly via NewFleet, or let a Server drive it via
// ServerOptions.Fleet. A fleet serves fp32.
type (
	// Fleet serves one model across many hosts (replica groups of
	// pipelined shard enclaves joined by attested channels).
	Fleet = fleet.Fleet
	// FleetOptions parameterises NewFleet: the hosts, the micro-batch
	// bound, the parked per-shard overhead, the enclave seed, optional
	// per-channel fault injectors and the metrics registry. Inter-host
	// hand-offs are free on the modeled clock unless a fault injector
	// delays or drops them.
	FleetOptions = fleet.Options
	// FleetPlacement is a planned placement: the shared shard plan and
	// each replica group's per-shard host assignment.
	FleetPlacement = fleet.Placement
	// FleetHostReport is one fleet host's placement and load view.
	FleetHostReport = fleet.HostReport
)

// Fleet errors re-exported for matching with errors.Is.
var (
	// ErrInfeasiblePlacement: the model cannot be packed onto the
	// fleet's headrooms with every shard resident, even at the finest
	// layer split.
	ErrInfeasiblePlacement = fleet.ErrInfeasible
	ErrFleetClosed         = fleet.ErrClosed
	// ErrHostDown: a boundary crossing was refused because the enclave's
	// host has been killed; the fleet treats it as a routing failure.
	ErrHostDown = enclave.ErrHostDown
	// ErrFleetUnavailable: no live serving capacity — hosts are down and
	// the survivors hold no groups. Transient; maps to 503 + Retry-After.
	ErrFleetUnavailable = fleet.ErrUnavailable
	// ErrFleetDegraded names the degraded serving state (streaming on
	// survivors after host loss) surfaced in Stats and /healthz.
	ErrFleetDegraded = fleet.ErrDegraded
	// ErrHandoffFault: a sealed hand-off could not be carried through
	// transient channel faults within the bounded retry budget.
	ErrHandoffFault = fleet.ErrHandoffFault
)

// NewFleet plans (or restores) a placement of f's model across the
// fleet's hosts and builds the serving fabric over it, publishing the
// current model first if no snapshot exists yet.
func NewFleet(f *Framework, opts FleetOptions) (*Fleet, error) {
	return fleet.New(f, opts)
}

// Serve publishes f's current model to PM as an immutable versioned
// snapshot and starts an inference server over it: opts.Workers
// attested enclave replicas each restore the pinned version and serve
// dynamic micro-batches. Training may continue concurrently; use
// Server.Refresh to roll the pool to a newer published version and
// Server.RotateKey to re-provision the data key, both without a
// serving gap. ctx bounds construction only.
func Serve(ctx context.Context, f *Framework, opts ServerOptions) (*Server, error) {
	return serve.New(ctx, f, opts)
}

// Observability: every layer of the reproduction (enclave paging, AES
// sealing, PM traffic, mirror transfers, model compute, serving) feeds
// a typed metric registry, and the serving path records per-request
// stage spans with bounded slowest-N retention.
type (
	// MetricsRegistry is a typed registry of counters, gauges and
	// latency histograms; it encodes to the Prometheus text format
	// with WritePrometheus and flattens to a map with obs.Flatten.
	MetricsRegistry = obs.Registry
	// TraceSnapshot is one retained slow request with its per-stage
	// spans (queue, batch, window, per-shard wait/restore/open/
	// compute/seal, deliver).
	TraceSnapshot = obs.TraceSnapshot
	// TraceSpan is one named stage duration of a TraceSnapshot.
	TraceSpan = obs.SpanRec
)

// Metrics returns the process-wide metric registry: the layer-level
// series every Framework, enclave, PM device and mirror in the process
// reports into — enclave_ecalls_total and epc_page_swaps_total by
// enclave role, engine_seal_ops_total, pm_bytes_stored_total,
// mirror_seal_seconds_total, darknet_forward_passes_total, and so on.
// Per-server serving metrics live on each server's private registry,
// Server.Metrics; expose both (plinius-serve's /metrics writes this
// registry, then the server's).
func Metrics() *MetricsRegistry { return obs.Default() }
