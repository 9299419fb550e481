package experiments

import (
	"crypto/rand"
	"fmt"
	"io"
	mrand "math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
	"plinius/internal/obs"
	"plinius/internal/pm"
	"plinius/internal/romulus"
)

// Parallel hot-path benchmark (PR 5): one machine-readable snapshot of
// the three paths this PR parallelised, tracked from this PR on so the
// perf trajectory is visible in CI artifacts (BENCH_5.json).
//
//   - kernels: training-iteration throughput with the scalar reference
//     GEMM kernels versus the blocked multi-core kernels. On >= 4 cores
//     the parallel kernels are expected to deliver >= 2x.
//   - mirroring: MirrorOut sealing throughput (payload GB/s, wall
//     clock) with the fan-out seal pipeline.
//   - sharded serving: per-batch latency quantiles and pipeline stalls
//     with double-buffered restore off and on.
//
// The PR 8 rung adds the quantized serving path: a CNN is trained
// fp32, published with the int8 snapshot variant, and the section
// reports the sealed-payload ratio (quantized vs fp32, expected well
// under 30%) plus the eval-accuracy delta between the fp32 model and
// its int8 inference clone (expected within 1%).

// PerfResult is the -exp perf snapshot, shaped for JSON.
type PerfResult struct {
	GoMaxProcs    int `json:"gomaxprocs"`
	KernelWorkers int `json:"kernel_workers"`
	// KernelISA is the micro-kernel instruction set the parallel column
	// ran on: "avx2" or "go" (darknet.KernelISA).
	KernelISA string `json:"kernel_isa"`

	TrainIters          int     `json:"train_iters"`
	TrainBatch          int     `json:"train_batch"`
	ScalarItersPerSec   float64 `json:"iters_per_sec_scalar"`
	ParallelItersPerSec float64 `json:"iters_per_sec_parallel"`
	KernelSpeedup       float64 `json:"kernel_speedup_x"`

	SealPayloadBytes int     `json:"seal_payload_bytes"`
	SealGBps         float64 `json:"seal_gbps"`
	OpenGBps         float64 `json:"open_gbps"`

	ShardBatches        int     `json:"shard_batches"`
	ShardP95NoPrefetch  float64 `json:"shard_p95_ms_noprefetch"`
	ShardP95Prefetch    float64 `json:"shard_p95_ms_prefetch"`
	ShardStallsNoPf     uint64  `json:"shard_stalls_noprefetch"`
	ShardStallsPf       uint64  `json:"shard_stalls_prefetch"`
	ShardPrefetched     uint64  `json:"shard_prefetched_restores"`
	ShardWallMsNoPf     float64 `json:"shard_wall_ms_noprefetch"`
	ShardWallMsPrefetch float64 `json:"shard_wall_ms_prefetch"`

	QuantTrainIters    int     `json:"quant_train_iters"`
	QuantEvalSamples   int     `json:"quant_eval_samples"`
	FP32Accuracy       float64 `json:"fp32_accuracy"`
	Int8Accuracy       float64 `json:"int8_accuracy"`
	QuantAccuracyDelta float64 `json:"quant_accuracy_delta"`
	FP32SealedBytes    int     `json:"fp32_sealed_bytes"`
	QuantSealedBytes   int     `json:"quant_sealed_bytes"`
	QuantPayloadRatio  float64 `json:"quant_payload_ratio"`

	// Metrics is the flattened obs-registry snapshot at the end of the
	// run — the process-wide layer counters (enclave, engine, pm,
	// mirror, darknet) plus the shard benchmark's per-shard series —
	// keyed name{label=value}, histograms as _count/_sum pairs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// PerfConfig scales RunPerf.
type PerfConfig struct {
	// Quick shrinks every dimension for a CI smoke run.
	Quick bool
	Seed  int64
}

// RunPerf measures the three parallel hot paths and returns the
// snapshot.
func RunPerf(cfg PerfConfig) (PerfResult, error) {
	res := PerfResult{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		KernelWorkers: darknet.KernelParallelism(),
		KernelISA:     darknet.KernelISA(),
	}
	if err := perfKernels(cfg, &res); err != nil {
		return res, fmt.Errorf("perf kernels: %w", err)
	}
	if err := perfSeal(cfg, &res); err != nil {
		return res, fmt.Errorf("perf seal: %w", err)
	}
	if err := perfQuant(cfg, &res); err != nil {
		return res, fmt.Errorf("perf quant: %w", err)
	}
	if err := perfShard(cfg, &res); err != nil {
		return res, fmt.Errorf("perf shard: %w", err)
	}
	return res, nil
}

// perfTrainNet builds the kernel-benchmark model: a conv stack big
// enough that GEMM dominates.
func perfTrainNet(cfg PerfConfig) (*darknet.Network, error) {
	filters := 16
	if cfg.Quick {
		filters = 8
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	return darknet.NewBuilder(darknet.NetConfig{
		Batch: 32, LearningRate: 0.1, Momentum: 0.9,
		Channels: 1, Height: 28, Width: 28,
	}, rng).
		Conv(darknet.ConvConfig{Filters: filters, Size: 3, Stride: 1, Pad: 1, Activation: darknet.LeakyReLU}).
		MaxPool(2, 2).
		Conv(darknet.ConvConfig{Filters: 2 * filters, Size: 3, Stride: 1, Pad: 1, Activation: darknet.LeakyReLU}).
		MaxPool(2, 2).
		Connected(64, darknet.LeakyReLU).
		Connected(10, darknet.Linear).
		Softmax().
		Build()
}

func perfKernels(cfg PerfConfig, res *PerfResult) error {
	iters := 8
	if cfg.Quick {
		iters = 2
	}
	batch := 32
	ds := mnist.Synthetic(batch*iters, cfg.Seed)
	classes := 10

	run := func(scalar bool) (float64, error) {
		darknet.SetScalarKernels(scalar)
		defer darknet.SetScalarKernels(false)
		net, err := perfTrainNet(cfg)
		if err != nil {
			return 0, err
		}
		in := net.InputSize()
		y := make([]float32, batch*classes)
		// One warm-up iteration grows the scratch buffers.
		if _, err := net.TrainBatch(ds.Images[:batch*in], y, batch); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			lo := (i % iters) * batch * in
			if _, err := net.TrainBatch(ds.Images[lo:lo+batch*in], y, batch); err != nil {
				return 0, err
			}
		}
		return float64(iters) / time.Since(start).Seconds(), nil
	}
	var err error
	if res.ScalarItersPerSec, err = run(true); err != nil {
		return err
	}
	if res.ParallelItersPerSec, err = run(false); err != nil {
		return err
	}
	res.TrainIters, res.TrainBatch = iters, batch
	if res.ScalarItersPerSec > 0 {
		res.KernelSpeedup = res.ParallelItersPerSec / res.ScalarItersPerSec
	}
	return nil
}

// perfQuant measures the quantized publication/serving path end to
// end: a CNN trained fp32 on synthetic digits is published with the
// int8 snapshot variant onto raw PM, both variants are opened from the
// pinned version, and the quantized clone is restored from its sealed
// payload before evaluation — so the reported int8 accuracy is that of
// the exact bytes a quantized replica would serve.
func perfQuant(cfg PerfConfig, res *PerfResult) error {
	iters, evalN := 60, 256
	if cfg.Quick {
		iters, evalN = 12, 128
	}
	batch := 32
	full := mnist.Synthetic(batch*iters+evalN, cfg.Seed+7)
	train, test, err := full.Split(batch * iters)
	if err != nil {
		return err
	}
	net, err := perfTrainNet(cfg)
	if err != nil {
		return err
	}
	in := net.InputSize()
	y := make([]float32, batch*mnist.Classes)
	for i := 0; i < iters; i++ {
		for j := range y {
			y[j] = 0
		}
		for b := 0; b < batch; b++ {
			y[b*mnist.Classes+train.Labels[i*batch+b]] = 1
		}
		if _, err := net.TrainBatch(train.Images[i*batch*in:(i+1)*batch*in], y, batch); err != nil {
			return err
		}
	}
	qnet, err := darknet.QuantizeNetwork(net)
	if err != nil {
		return err
	}

	// Publish both variants onto raw PM and restore the quantized clone
	// from its sealed payload.
	dev, err := pm.New(32 << 20)
	if err != nil {
		return err
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		return err
	}
	eng, err := engine.New([]byte("0123456789abcdef"), engine.WithRand(rand.Reader))
	if err != nil {
		return err
	}
	pub, err := mirror.OpenPublication(rom)
	if err != nil {
		return err
	}
	if _, err := pub.PublishOut(eng, net, mirror.WithQuantized()); err != nil {
		return err
	}
	pin, err := pub.Pin(0)
	if err != nil {
		return err
	}
	defer pin.Release()
	m, err := pin.Open(eng)
	if err != nil {
		return err
	}
	qm, err := pin.OpenQuant(eng)
	if err != nil {
		return err
	}
	if _, err := qm.RestoreInto(qnet); err != nil {
		return err
	}
	res.FP32SealedBytes = m.SealedBytes()
	res.QuantSealedBytes = qm.SealedBytes()
	if res.FP32SealedBytes > 0 {
		res.QuantPayloadRatio = float64(res.QuantSealedBytes) / float64(res.FP32SealedBytes)
	}

	eval := func(n *darknet.Network) (float64, error) {
		correct := 0
		for lo := 0; lo < test.N; lo += batch {
			sz := batch
			if lo+sz > test.N {
				sz = test.N - lo
			}
			classes, err := n.ClassifyBatch(test.Images[lo*in:(lo+sz)*in], sz)
			if err != nil {
				return 0, err
			}
			for k, c := range classes {
				if c == test.Labels[lo+k] {
					correct++
				}
			}
		}
		return float64(correct) / float64(test.N), nil
	}
	if res.FP32Accuracy, err = eval(net); err != nil {
		return err
	}
	if res.Int8Accuracy, err = eval(qnet); err != nil {
		return err
	}
	res.QuantAccuracyDelta = res.FP32Accuracy - res.Int8Accuracy
	res.QuantTrainIters, res.QuantEvalSamples = iters, test.N
	return nil
}

// perfSeal times the fan-out MirrorOut/MirrorIn over a synthetic model
// on raw PM (no enclave cost model, so the wall clock is the real
// AES + store pipeline).
func perfSeal(cfg PerfConfig, res *PerfResult) error {
	sizeMB := 16
	reps := 4
	if cfg.Quick {
		sizeMB, reps = 4, 2
	}
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return err
	}
	net, err := darknet.ParseConfig(strings.NewReader(cfgText), mrand.New(mrand.NewSource(cfg.Seed)))
	if err != nil {
		return err
	}
	dev, err := pm.New((sizeMB*3 + 8) << 20)
	if err != nil {
		return err
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		return err
	}
	eng, err := engine.New([]byte("0123456789abcdef"), engine.WithRand(rand.Reader))
	if err != nil {
		return err
	}
	m, err := mirror.AllocModel(rom, eng, net)
	if err != nil {
		return err
	}
	payload := net.ParamBytes()
	res.SealPayloadBytes = payload

	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := m.MirrorOut(net); err != nil {
			return err
		}
	}
	sealWall := time.Since(start).Seconds()
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := m.MirrorIn(net); err != nil {
			return err
		}
	}
	openWall := time.Since(start).Seconds()
	gb := float64(payload) * float64(reps) / 1e9
	if sealWall > 0 {
		res.SealGBps = gb / sealWall
	}
	if openWall > 0 {
		res.OpenGBps = gb / openWall
	}
	return nil
}

func perfShard(cfg PerfConfig, res *PerfResult) error {
	sizeMB, epcMB, batches, batch := 24, 12, 8, 1
	if cfg.Quick {
		sizeMB, epcMB, batches = 6, 3, 4
	}
	// One registry across both runs: the embedded snapshot totals the
	// prefetch-off and prefetch-on passes' per-shard series.
	reg := obs.NewRegistry()
	defer func() { res.Metrics = obs.Flatten(obs.Default(), reg) }()
	server := core.SGXEmlPM()
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return err
	}
	f, err := core.New(core.Config{
		ModelConfig:        cfgText,
		Server:             server,
		PMBytes:            (sizeMB*5/2 + 48) << 20,
		Seed:               cfg.Seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return err
	}
	images := mnist.Synthetic(batch*batches, cfg.Seed).Images
	in := f.Net.InputSize()
	res.ShardBatches = batches

	run := func(disablePrefetch bool) (p95, wall float64, stalls, prefetched uint64, err error) {
		host := enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcMB<<20))
		g, err := f.NewShardGroup(core.ShardOptions{
			Host:            host,
			Batch:           batch,
			OverheadBytes:   64 << 10,
			Seed:            cfg.Seed + 100,
			DisablePrefetch: disablePrefetch,
			Metrics:         reg,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer g.Close()
		lats := make([]time.Duration, 0, batches)
		start := time.Now()
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			if _, err := g.ClassifyBatch(images[b*batch*in : (b+1)*batch*in]); err != nil {
				return 0, 0, 0, 0, err
			}
			lats = append(lats, time.Since(t0))
		}
		wall = time.Since(start).Seconds() * 1e3
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p95 = float64(lats[(len(lats)*95+99)/100-1]) / float64(time.Millisecond)
		r := g.Report()
		return p95, wall, r.ShardStalls, r.ShardPrefetched, nil
	}
	if res.ShardP95NoPrefetch, res.ShardWallMsNoPf, res.ShardStallsNoPf, _, err = run(true); err != nil {
		return err
	}
	if res.ShardP95Prefetch, res.ShardWallMsPrefetch, res.ShardStallsPf, res.ShardPrefetched, err = run(false); err != nil {
		return err
	}
	return nil
}

// Print renders the snapshot as a table.
func (r PerfResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Parallel hot paths — GOMAXPROCS=%d, kernel workers=%d, kernel ISA=%s\n", r.GoMaxProcs, r.KernelWorkers, r.KernelISA)
	tw := newTable(w)
	fmt.Fprintln(tw, "path\tmetric\tscalar/off\tparallel/on\tgain")
	fmt.Fprintf(tw, "train\titers/s (batch %d)\t%.2f\t%.2f\t%.2fx\n",
		r.TrainBatch, r.ScalarItersPerSec, r.ParallelItersPerSec, r.KernelSpeedup)
	fmt.Fprintf(tw, "mirror\tseal GB/s\t-\t%.2f\t\n", r.SealGBps)
	fmt.Fprintf(tw, "mirror\topen GB/s\t-\t%.2f\t\n", r.OpenGBps)
	fmt.Fprintf(tw, "shard\tP95 ms (%d batches)\t%.2f\t%.2f\t\n",
		r.ShardBatches, r.ShardP95NoPrefetch, r.ShardP95Prefetch)
	fmt.Fprintf(tw, "shard\tstalls\t%d\t%d\t%d prefetched\n",
		r.ShardStallsNoPf, r.ShardStallsPf, r.ShardPrefetched)
	fmt.Fprintf(tw, "quant\tsealed bytes\t%d\t%d\t%.1f%% of fp32\n",
		r.FP32SealedBytes, r.QuantSealedBytes, 100*r.QuantPayloadRatio)
	fmt.Fprintf(tw, "quant\taccuracy (%d eval)\t%.2f%%\t%.2f%%\t%+.2f pts\n",
		r.QuantEvalSamples, 100*r.FP32Accuracy, 100*r.Int8Accuracy, -100*r.QuantAccuracyDelta)
	tw.Flush()
}
