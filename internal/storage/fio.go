package storage

import (
	"errors"
	"fmt"
	"time"
)

// FIOPattern selects the access pattern of a characterisation workload.
type FIOPattern int

// Access patterns matching the paper's Fig. 2 panels.
const (
	RandomRead FIOPattern = iota + 1
	SequentialRead
	RandomWrite
	SequentialWrite
)

// String implements fmt.Stringer.
func (p FIOPattern) String() string {
	switch p {
	case RandomRead:
		return "rand-read"
	case SequentialRead:
		return "seq-read"
	case RandomWrite:
		return "rand-write"
	case SequentialWrite:
		return "seq-write"
	default:
		return fmt.Sprintf("FIOPattern(%d)", int(p))
	}
}

// IsWrite reports whether the pattern writes.
func (p FIOPattern) IsWrite() bool { return p == RandomWrite || p == SequentialWrite }

// IsSequential reports whether the pattern is sequential.
func (p FIOPattern) IsSequential() bool { return p == SequentialRead || p == SequentialWrite }

// FIOConfig describes a Fig. 2 characterisation run: per-thread file of
// FileSize bytes accessed in BlockSize units; write workloads issue an
// fsync after every written block (the paper's sync I/O engine setup).
type FIOConfig struct {
	Pattern   FIOPattern
	Threads   int
	BlockSize int
	FileSize  int
}

// DefaultFIOConfig matches the paper: 512 MB file per thread, 4 KB blocks.
func DefaultFIOConfig(p FIOPattern, threads int) FIOConfig {
	return FIOConfig{
		Pattern:   p,
		Threads:   threads,
		BlockSize: 4096,
		FileSize:  512 << 20,
	}
}

// FIOResult is one data point of Fig. 2.
type FIOResult struct {
	Config         FIOConfig
	Bytes          uint64
	Elapsed        time.Duration
	ThroughputGBps float64
}

// RunFIO simulates the workload op-by-op against the profile's cost model
// and returns the achieved throughput. Thread scaling follows the
// device's internal parallelism: threads beyond MaxParallel add no
// throughput, and aggregate throughput never exceeds the bandwidth
// ceiling.
func RunFIO(prof Profile, cfg FIOConfig) (FIOResult, error) {
	if cfg.Threads <= 0 {
		return FIOResult{}, errors.New("storage: fio threads must be positive")
	}
	if cfg.BlockSize <= 0 || cfg.FileSize < cfg.BlockSize {
		return FIOResult{}, errors.New("storage: fio block/file size invalid")
	}
	ops := cfg.FileSize / cfg.BlockSize

	// Per-op service time from the cost model.
	var lat time.Duration
	var bw float64
	if cfg.Pattern.IsWrite() {
		lat = prof.WriteLatency + prof.FsyncLatency
		bw = prof.WriteBandwidth
	} else {
		lat = prof.ReadLatency
		bw = prof.ReadBandwidth
	}
	if cfg.Pattern.IsSequential() && prof.SeqBoost > 1 {
		lat = time.Duration(float64(lat) / prof.SeqBoost)
	}
	transfer := time.Duration(float64(cfg.BlockSize) / bw * float64(time.Second))
	perOp := lat + transfer

	// Effective parallelism: min(threads, MaxParallel). Each effective
	// channel serves ops serially.
	eff := cfg.Threads
	if prof.MaxParallel > 0 && eff > prof.MaxParallel {
		eff = prof.MaxParallel
	}
	totalOps := ops * cfg.Threads
	elapsed := time.Duration(int64(perOp) * int64(totalOps) / int64(eff))

	bytes := uint64(totalOps) * uint64(cfg.BlockSize)
	// Bandwidth ceiling: elapsed can never be shorter than bytes/bw.
	floor := time.Duration(float64(bytes) / bw * float64(time.Second))
	if elapsed < floor {
		elapsed = floor
	}
	gbps := float64(bytes) / elapsed.Seconds() / 1e9
	return FIOResult{
		Config:         cfg,
		Bytes:          bytes,
		Elapsed:        elapsed,
		ThroughputGBps: gbps,
	}, nil
}
