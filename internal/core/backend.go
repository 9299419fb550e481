package core

import (
	"context"

	"plinius/internal/darknet"
)

// Backend is one serving backend: what a model server forms
// micro-batches for. A replica — a one-range ShardGroup — serves one
// batch at a time (Window 1); a multi-range ShardGroup, and a fleet of
// them, pipeline up to Window batches at once. Refresh and Close may
// run only while no batch is in flight on the backend.
type Backend interface {
	// ClassifyBatchCtx classifies images laid out contiguously, one
	// class per image. Up to Window calls may run concurrently.
	ClassifyBatchCtx(ctx context.Context, images []float32) ([]int, error)
	// Window is how many batches the backend serves at once.
	Window() int
	// Version is the published model version the backend serves.
	Version() uint64
	// Iteration is the training iteration of the served model.
	Iteration() int
	// Refresh restores the latest published version and returns its
	// iteration, first provisioning the framework's current data key
	// into the backend's enclaves when it has changed since they were
	// keyed.
	Refresh() (int, error)
	// Close tears the backend's enclaves down.
	Close() error
	// Report describes the backend. It reads only counters, atomics
	// and fields fixed at construction, so it never waits for a batch
	// or a control call.
	Report() BackendReport
}

var _ Backend = (*ShardGroup)(nil)

// BackendReport is a serving backend's shape and counters at one
// moment. What does not apply to a backend stays zero: a replica
// reports only its precision, a shard group its pipeline, and a fleet
// its replica groups' pipelines summed plus the fabric's state.
type BackendReport struct {
	// Precision is the parameter precision served: Int8 for a group
	// built with ShardOptions.Precision Int8, FP32 otherwise.
	Precision darknet.Precision
	// Shards is the number of pipeline stages (per replica group in a
	// fleet), 0 for whole-model replicas; Streaming reports whether
	// parked layer ranges stream back from PM per batch.
	Shards    int
	Streaming bool
	// Shard-pipeline counters: ShardRestores counts layer-range
	// restores from PM, which a streaming stage does once per batch, as
	// its forward pass reaches each layer. ShardStalls,
	// ShardPrefetchWaits and ShardPrefetched read 0: they counted the
	// background range prefetcher, which streaming no longer has, and
	// stay for readers that print them.
	ShardRestores      uint64
	ShardStalls        uint64
	ShardPrefetchWaits uint64
	ShardPrefetched    uint64
	// Fleet fabric: FleetHosts and FleetGroups describe it (hosts,
	// replica groups); FleetHandoffs and FleetHandoffBytes count the
	// sealed activation hand-offs carried across inter-host channels.
	FleetHosts        int
	FleetGroups       int
	FleetHandoffs     uint64
	FleetHandoffBytes uint64
	// Fleet failure-domain state: FleetHostsDown is the number of hosts
	// marked dead, FleetDegraded whether the fleet fell back to
	// streaming on survivors, FleetReplans / FleetEvictedGroups /
	// FleetHandoffRetries the recovery counters behind
	// fleet_replans_total and friends.
	FleetHostsDown      int
	FleetDegraded       bool
	FleetReplans        uint64
	FleetEvictedGroups  uint64
	FleetHandoffRetries uint64
}

// Add folds o into r, making r one report over both: sizes and
// counters add up, flags OR together, and the precision becomes o's
// (the backends of one server all serve one precision).
func (r *BackendReport) Add(o BackendReport) {
	r.Precision = o.Precision
	r.Shards += o.Shards
	r.Streaming = r.Streaming || o.Streaming
	r.ShardRestores += o.ShardRestores
	r.ShardStalls += o.ShardStalls
	r.ShardPrefetchWaits += o.ShardPrefetchWaits
	r.ShardPrefetched += o.ShardPrefetched
	r.FleetHosts += o.FleetHosts
	r.FleetGroups += o.FleetGroups
	r.FleetHandoffs += o.FleetHandoffs
	r.FleetHandoffBytes += o.FleetHandoffBytes
	r.FleetHostsDown += o.FleetHostsDown
	r.FleetDegraded = r.FleetDegraded || o.FleetDegraded
	r.FleetReplans += o.FleetReplans
	r.FleetEvictedGroups += o.FleetEvictedGroups
	r.FleetHandoffRetries += o.FleetHandoffRetries
}
