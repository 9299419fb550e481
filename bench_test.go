// Benchmarks of the mirroring, recovery, SPS, serving and training hot
// paths. The paper's figures and tables are the ledger's job
// (cmd/plinius-bench, TestPaperLedger in internal/experiments; see
// EXPERIMENTS.md).
package plinius_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
	"plinius/internal/pm"
	"plinius/internal/romulus"
	"plinius/internal/serve"
)

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
// wall time of the slot writer sealing into PM plus the Romulus flip,
// per model byte.
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

// BenchmarkMirrorRestore64MiB is one mirror-in at ckpt-large scale:
// every segment opened straight from PM into the parameters, per model
// byte.
func BenchmarkMirrorRestore64MiB(b *testing.B) {
	f := newCkptFramework(b)
	b.SetBytes(int64(f.Net.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MirrorRestore(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublish64MiB is one publication at ckpt-large scale right
// after a save: the enclave model is the mirror's latest generation,
// so the version names the mirror's frame in one small transaction and
// nothing is sealed.
func BenchmarkPublish64MiB(b *testing.B) {
	f := newCkptFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Publish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishUnmirrored64MiB is one publication at ckpt-large
// scale of parameters the mirror does not hold — perturbed, a training
// step later, with no save — so it costs one save: the slot writer
// seals the model into a free frame, and one transaction names it as
// the mirror's latest generation and the next version. The perturbation
// is not timed.
func BenchmarkPublishUnmirrored64MiB(b *testing.B) {
	f := newCkptFramework(b)
	b.SetBytes(int64(f.Net.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, l := range f.Net.Layers {
			for _, p := range l.Params() {
				p[0] += 1e-3
			}
		}
		f.Net.Iteration++
		b.StartTimer()
		if _, err := f.Publish(); err != nil {
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
