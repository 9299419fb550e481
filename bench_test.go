// Benchmarks regenerating every table and figure of the Plinius paper
// (one benchmark per experiment; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison and cmd/plinius-bench for the full-size
// sweeps). Custom metrics carry the paper's headline numbers: speed-ups
// as "x", throughput as swaps/µs or GB/s, overheads as ratios.
package plinius_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/experiments"
	"plinius/internal/mnist"
	"plinius/internal/pm"
	"plinius/internal/romulus"
	"plinius/internal/serve"
	"plinius/internal/spot"
	"plinius/internal/storage"
)

// BenchmarkFig2StorageThroughput characterises the three device classes
// (paper Fig. 2). Metric: PM random-write throughput in GB/s and its
// advantage over SSD.
func BenchmarkFig2StorageThroughput(b *testing.B) {
	var pmGBps, ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2([]int{1, 2, 4, 8}, 64)
		if err != nil {
			b.Fatal(err)
		}
		rows := res.ByDevice["pm-ext4-dax"]
		ssd := res.ByDevice["ssd-ext4"]
		// Index 8..11 = random writes across thread counts (4 patterns
		// x 4 thread counts, pattern-major).
		pmGBps = rows[8].ThroughputGBps
		ratio = rows[8].ThroughputGBps / ssd[8].ThroughputGBps
	}
	b.ReportMetric(pmGBps, "pm-randwrite-GB/s")
	b.ReportMetric(ratio, "pm-vs-ssd-x")
}

// BenchmarkFig6SPS runs the swaps-per-second microbenchmark (paper
// Fig. 6) for the three environments at a large transaction size.
// Metrics: swaps/µs per environment.
func BenchmarkFig6SPS(b *testing.B) {
	run := func(env romulus.Env) float64 {
		dev, err := pm.New(32<<20, pm.WithProfile(pm.RamdiskProfile()))
		if err != nil {
			b.Fatal(err)
		}
		r, err := romulus.Open(dev, romulus.WithEnv(env))
		if err != nil {
			b.Fatal(err)
		}
		res, err := romulus.RunSPS(r, romulus.SPSConfig{
			ArrayBytes: 10 << 20, SwapsPerTx: 512, Transactions: 10, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.SwapsPerUs
	}
	var native, sgx, scone float64
	for i := 0; i < b.N; i++ {
		native = run(romulus.NativeEnv())
		sgx = run(romulus.SGXEnv())
		scone = run(romulus.SconeEnv())
	}
	b.ReportMetric(native, "native-swaps/us")
	b.ReportMetric(sgx, "sgx-swaps/us")
	b.ReportMetric(scone, "scone-swaps/us")
}

// BenchmarkFig7SaveRestore compares PM mirroring against SSD
// checkpointing on a mid-size model (paper Fig. 7). Metrics: the
// Table Ib speed-ups.
func BenchmarkFig7SaveRestore(b *testing.B) {
	var saveX, restoreX float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(core.SGXEmlPM(), []int{10}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		saveX = float64(row.SSDSave.Total()) / float64(row.MirrorSave.Total())
		restoreX = float64(row.SSDRestore.Total()) / float64(row.MirrorRestore.Total())
	}
	b.ReportMetric(saveX, "save-speedup-x")
	b.ReportMetric(restoreX, "restore-speedup-x")
}

// BenchmarkTable1Breakdown measures the mirroring step shares (paper
// Table Ia, below-EPC column, sgx-emlPM).
func BenchmarkTable1Breakdown(b *testing.B) {
	var encryptPct, readPct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(core.SGXEmlPM(), []int{10}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		t1a := experiments.ComputeTable1a(res)
		encryptPct = t1a.EncryptBelow
		readPct = t1a.ReadBelow
	}
	b.ReportMetric(encryptPct, "save-encrypt-%")
	b.ReportMetric(readPct, "restore-read-%")
}

// BenchmarkFig8BatchDecrypt measures the encrypted-data overhead (paper
// Fig. 8). Metric: the fetch-path overhead ratio.
func BenchmarkFig8BatchDecrypt(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(experiments.Fig8Config{
			BatchSizes: []int{64}, ConvLayers: 2, Filters: 4, Iters: 2,
			DatasetSize: 256, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Rows[0].FetchOverhead
	}
	b.ReportMetric(overhead, "fetch-overhead-x")
}

// BenchmarkFig9CrashResilience runs the crash/recover training loop
// (paper Fig. 9). Metric: extra iterations the non-resilient baseline
// needed.
func BenchmarkFig9CrashResilience(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(experiments.Fig9Config{
			Iters: 16, Crashes: 2, ConvLayers: 1, Filters: 4,
			Batch: 16, Dataset: 128, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(res.NonResilientTotal - len(res.Resilient))
	}
	b.ReportMetric(extra, "non-resilient-extra-iters")
}

// BenchmarkFig10SpotTraining replays a spot trace (paper Fig. 10).
// Metric: interruptions survived by the resilient run.
func BenchmarkFig10SpotTraining(b *testing.B) {
	var interruptions float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(experiments.Fig10Config{
			// Two mid-run price spikes above the bid, as in the
			// paper's trace.
			Trace: spot.Trace{Prices: []float64{
				0.05, 0.05, 0.12, 0.05, 0.05, 0.12, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05,
			}},
			TargetIters: 12, ItersPerInterval: 2, ConvLayers: 1,
			Filters: 4, Batch: 16, Dataset: 128, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Resilient.Completed {
			b.Fatal("resilient run did not complete")
		}
		interruptions = float64(res.Resilient.Interruptions)
	}
	b.ReportMetric(interruptions, "interruptions-survived")
}

// BenchmarkInferenceAccuracy trains and classifies in-enclave (paper
// §VI secure inference). Metric: test accuracy in percent.
func BenchmarkInferenceAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInference(experiments.InferenceConfig{
			ConvLayers: 2, Filters: 8, Batch: 64, Iters: 100,
			Train: 800, Test: 200, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		acc = 100 * res.Accuracy
	}
	b.ReportMetric(acc, "accuracy-%")
}

// BenchmarkMirrorSaveOnly isolates one mirror-out of a 10 MB model
// (ablation: per-iteration mirroring cost).
func BenchmarkMirrorSaveOnly(b *testing.B) {
	cfgText, err := core.SyntheticModelConfig(10 << 20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.New(core.Config{ModelConfig: cfgText, PMBytes: 80 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.MirrorSave(); err != nil { // allocate the mirror
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MirrorSave(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMirrorRestoreOnly isolates one mirror-in of a 10 MB model.
func BenchmarkMirrorRestoreOnly(b *testing.B) {
	cfgText, err := core.SyntheticModelConfig(10 << 20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.New(core.Config{ModelConfig: cfgText, PMBytes: 80 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.MirrorSave(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MirrorRestore(); err != nil {
			b.Fatal(err)
		}
	}
}

// newCkptFramework builds the 64 MiB synthetic model of the repository
// benchmark's ckpt-large workload, with its mirror already allocated.
func newCkptFramework(b *testing.B) *core.Framework {
	b.Helper()
	cfgText, err := core.SyntheticModelConfig(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.New(core.Config{ModelConfig: cfgText, PMBytes: 640 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.MirrorSave(); err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkMirrorSave64MiB is one mirror-out at ckpt-large scale: the
// wall time of the seal -> PM store -> Romulus commit data path, per
// model byte.
func BenchmarkMirrorSave64MiB(b *testing.B) {
	f := newCkptFramework(b)
	b.SetBytes(int64(f.Net.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MirrorSave(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashRecover64MiB is one power failure plus full recovery
// (Romulus re-open, model rebuild, mirror-in) at ckpt-large scale.
func BenchmarkCrashRecover64MiB(b *testing.B) {
	f := newCkptFramework(b)
	b.SetBytes(int64(f.Net.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Crash()
		if err := f.Recover(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPSFlushKinds compares the PWB flavours (ablation for the
// §V footnote: clwb+sfence vs clflushopt+sfence vs clflush+nop).
func BenchmarkSPSFlushKinds(b *testing.B) {
	run := func(kind pm.FlushKind) float64 {
		dev, err := pm.New(16 << 20)
		if err != nil {
			b.Fatal(err)
		}
		r, err := romulus.Open(dev, romulus.WithFlushKind(kind))
		if err != nil {
			b.Fatal(err)
		}
		res, err := romulus.RunSPS(r, romulus.SPSConfig{
			ArrayBytes: 1 << 20, SwapsPerTx: 64, Transactions: 20, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.SwapsPerUs
	}
	var clflush, opt, clwb float64
	for i := 0; i < b.N; i++ {
		clflush = run(pm.FlushClflush)
		opt = run(pm.FlushClflushOpt)
		clwb = run(pm.FlushCLWB)
	}
	b.ReportMetric(clflush, "clflush-swaps/us")
	b.ReportMetric(opt, "clflushopt-swaps/us")
	b.ReportMetric(clwb, "clwb-swaps/us")
}

// BenchmarkServeThroughput measures the serving subsystem's
// requests/sec across micro-batch size caps and worker pool sizes (the
// serving perf baseline; metric req/s). The 32-client rows keep every
// worker busy, so batches form from the backlog; the 2-client rows
// leave workers idle between requests, which is where a server that
// waits on a timer before dispatching shows up as lost throughput.
func BenchmarkServeThroughput(b *testing.B) {
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(1, 8, 32),
		PMBytes:     64 << 20,
		Seed:        5,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := mnist.Synthetic(256, 5)
	if err := f.LoadDataset(ds); err != nil {
		b.Fatal(err)
	}
	if err := f.Train(context.Background(), core.StopAt(4)); err != nil {
		b.Fatal(err)
	}
	type row struct{ workers, batch, clients int }
	var rows []row
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 8, 32} {
			rows = append(rows, row{workers, batch, 32})
		}
		rows = append(rows, row{workers, 32, 2})
	}
	for _, r := range rows {
		name := fmt.Sprintf("w%d/b%d", r.workers, r.batch)
		if r.clients != 32 {
			name += fmt.Sprintf("/c%d", r.clients)
		}
		b.Run(name, func(b *testing.B) {
			s, err := serve.New(context.Background(), f, serve.Options{Workers: r.workers, MaxBatch: r.batch})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < r.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += r.clients {
						if _, err := s.Classify(context.Background(), ds.Image(i%ds.N)); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(st.Throughput, "req/s")
			b.ReportMetric(st.AvgBatch, "avg-batch")
		})
	}
}

// BenchmarkFIOGrid exercises the FIO generator itself.
func BenchmarkFIOGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storage.Fig2Sweep([]int{1, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// trainIterationBench runs one-training-iteration-per-op on a conv
// stack big enough that GEMM dominates, under the selected kernels.
// BenchmarkTrainIteration/parallel vs /scalar is the PR-5 acceptance
// number: on a host with GOMAXPROCS >= 4 the blocked multi-core
// kernels deliver >= 2x the scalar reference (results bit-identical —
// see darknet's TestGEMMBitIdenticalToScalar).
func trainIterationBench(b *testing.B, scalar bool) {
	darknet.SetScalarKernels(scalar)
	defer darknet.SetScalarKernels(false)
	const batch, classes = 32, 10
	rng := rand.New(rand.NewSource(17))
	net, err := darknet.NewBuilder(darknet.NetConfig{
		Batch: batch, LearningRate: 0.1, Momentum: 0.9,
		Channels: 1, Height: 28, Width: 28,
	}, rng).
		Conv(darknet.ConvConfig{Filters: 16, Size: 3, Stride: 1, Pad: 1, Activation: darknet.LeakyReLU}).
		MaxPool(2, 2).
		Conv(darknet.ConvConfig{Filters: 32, Size: 3, Stride: 1, Pad: 1, Activation: darknet.LeakyReLU}).
		MaxPool(2, 2).
		Connected(64, darknet.LeakyReLU).
		Connected(classes, darknet.Linear).
		Softmax().
		Build()
	if err != nil {
		b.Fatal(err)
	}
	ds := mnist.Synthetic(batch, 17)
	in := net.InputSize()
	y := make([]float32, batch*classes)
	for s := 0; s < batch; s++ {
		y[s*classes+s%classes] = 1
	}
	// Warm-up grows the per-layer scratch so the timed loop measures
	// steady state.
	if _, err := net.TrainBatch(ds.Images[:batch*in], y, batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(ds.Images[:batch*in], y, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "iters/s")
}

// BenchmarkTrainIteration measures training-iteration throughput with
// the blocked multi-core GEMM kernels (the default) and the scalar
// reference, on the same model and data.
func BenchmarkTrainIteration(b *testing.B) {
	b.Run("parallel", func(b *testing.B) { trainIterationBench(b, false) })
	b.Run("scalar", func(b *testing.B) { trainIterationBench(b, true) })
}
