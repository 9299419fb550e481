package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
)

// trainedShardFramework trains a small model so shard restores have
// real weights, with a 1 MB per-enclave overhead so tests control the
// host arithmetic.
func trainedShardFramework(t *testing.T, iters int) (*Framework, *mnist.Dataset) {
	t.Helper()
	f := newFramework(t, Config{
		ModelConfig:        darknet.MNISTConfig(2, 6, 16),
		PMBytes:            64 << 20,
		Seed:               11,
		TrainOverheadBytes: 1 << 20,
	})
	ds := mnist.Synthetic(192, 11)
	train, test, err := ds.Split(128)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := f.LoadDataset(train); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(iters)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return f, test
}

// classifyAll runs every test image through the group in batches.
func groupClassifyAll(t *testing.T, g *ShardGroup, test *mnist.Dataset, batch int) []int {
	t.Helper()
	in := g.InputSize()
	out := make([]int, 0, test.N)
	for start := 0; start < test.N; start += batch {
		end := start + batch
		if end > test.N {
			end = test.N
		}
		classes, err := g.ClassifyBatch(test.Images[start*in : end*in])
		if err != nil {
			t.Fatalf("ClassifyBatch [%d,%d): %v", start, end, err)
		}
		out = append(out, classes...)
	}
	return out
}

// classifyConcurrently classifies every test image with 2 x Window
// callers at once, caller c taking every (2 x Window)-th batch of
// g.Batch() images, and returns the classes in image order.
func classifyConcurrently(t *testing.T, g *ShardGroup, test *mnist.Dataset) []int {
	t.Helper()
	in, batch, callers := g.InputSize(), g.Batch(), 2*g.Window()
	out := make([]int, test.N)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for start := c * batch; start < test.N; start += callers * batch {
				end := min(start+batch, test.N)
				classes, err := g.ClassifyBatch(test.Images[start*in : end*in])
				if err != nil {
					t.Errorf("ClassifyBatch [%d,%d): %v", start, end, err)
					return
				}
				copy(out[start:end], classes)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// TestShardGroupEquivalence: a replica, a resident pipeline and a
// streaming pipeline are one design at three settings, at either
// precision. Every row
// classifies the test set bit-identically to its reference — the
// training enclave's own forward, or at int8 the quantized clone of
// the trained model, which is what an int8 replica serves — with
// 2 x Window callers at once (run with -race), and charges the host it
// serves on exactly its reservation on build, holds it across the
// batches, and returns it on Close without touching any other host.
func TestShardGroupEquivalence(t *testing.T) {
	f, test := trainedShardFramework(t, 6)
	fp32Ref, err := f.ClassifyBatch(test.Images)
	if err != nil {
		t.Fatalf("framework ClassifyBatch: %v", err)
	}
	qnet, err := darknet.QuantizeNetwork(f.Net)
	if err != nil {
		t.Fatalf("QuantizeNetwork: %v", err)
	}
	int8Ref, err := qnet.ClassifyBatch(test.Images, test.N)
	if err != nil {
		t.Fatalf("int8 reference ClassifyBatch: %v", err)
	}
	own := func() *enclave.Host { return f.Host }
	dedicated := func(budget int) func() *enclave.Host {
		return func() *enclave.Host { return enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(budget)) }
	}
	// pipeline is a multi-range group's reservation: its overhead per
	// stage, plus every range's footprint at its precision while
	// resident.
	pipeline := func(overhead int, resident bool) func(*ShardGroup) int {
		return func(g *ShardGroup) int {
			total := 0
			for _, r := range g.Plan() {
				fp, err := f.Net.ShardFootprintAt(r, g.Batch(), g.Report().Precision)
				if err != nil {
					t.Fatalf("ShardFootprint(%v): %v", r, err)
				}
				total += overhead
				if resident {
					total += fp
				}
			}
			return total
		}
	}
	rows := []struct {
		name      string
		host      func() *enclave.Host
		build     func(*enclave.Host) (*ShardGroup, error)
		prec      darknet.Precision
		want      []int
		multi     bool
		streaming bool
		charge    func(*ShardGroup) int
	}{
		{
			name:   "one-range fp32",
			host:   dedicated(enclave.UsableEPC),
			build:  func(h *enclave.Host) (*ShardGroup, error) { return f.NewReplicaOn(h, 9) },
			want:   fp32Ref,
			charge: func(*ShardGroup) int { return f.ReplicaFootprint(0) },
		},
		{
			name: "one-range int8",
			host: own,
			build: func(h *enclave.Host) (*ShardGroup, error) {
				return f.NewShardGroup(ShardOptions{Shards: 1, Host: h, Precision: darknet.Int8, Seed: 9})
			},
			prec:   darknet.Int8,
			want:   int8Ref,
			charge: func(*ShardGroup) int { return f.ReplicaFootprintAt(0, darknet.Int8) },
		},
		{
			name: "multi-range fp32",
			host: dedicated(enclave.UsableEPC),
			build: func(h *enclave.Host) (*ShardGroup, error) {
				return f.NewShardGroup(ShardOptions{Shards: 3, Host: h, Batch: 8, Seed: 5})
			},
			want:   fp32Ref,
			multi:  true,
			charge: pipeline(DefaultShardOverheadBytes, true),
		},
		{
			name: "multi-range int8",
			host: dedicated(enclave.UsableEPC),
			build: func(h *enclave.Host) (*ShardGroup, error) {
				return f.NewShardGroup(ShardOptions{Shards: 3, Host: h, Batch: 8, Precision: darknet.Int8, Seed: 5})
			},
			prec:   darknet.Int8,
			want:   int8Ref,
			multi:  true,
			charge: pipeline(DefaultShardOverheadBytes, true),
		},
		{
			name: "streaming fp32",
			host: dedicated(192 << 10),
			build: func(h *enclave.Host) (*ShardGroup, error) {
				return f.NewShardGroup(ShardOptions{Host: h, Batch: 2, OverheadBytes: 8 << 10, Seed: 5})
			},
			want:      fp32Ref,
			multi:     true,
			streaming: true,
			charge:    pipeline(8<<10, false),
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			host := row.host()
			hostBefore, trainBefore := host.Resident(), f.Host.Resident()
			g, err := row.build(host)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			charge := row.charge(g)
			if got := host.Resident() - hostBefore; got != charge {
				t.Fatalf("host charged %d bytes on build, want %d", got, charge)
			}
			if host != f.Host && f.Host.Resident() != trainBefore {
				t.Fatalf("training host resident moved %d -> %d; serving elsewhere must not touch it", trainBefore, f.Host.Resident())
			}
			for _, s := range g.shards {
				if s.encl.Host() != host {
					t.Fatalf("shard %d enclave not placed on the target host", s.idx)
				}
			}
			r := g.Report()
			if multi := len(g.Plan()) > 1; multi != row.multi || (r.Shards > 0) != multi || r.Streaming != row.streaming || r.Precision != row.prec {
				t.Fatalf("plan %v reports %+v; want multi-range %v, streaming %v at %v", g.Plan(), r, row.multi, row.streaming, row.prec)
			}
			if g.Iteration() != f.Iteration() {
				t.Fatalf("serves iteration %d, want %d", g.Iteration(), f.Iteration())
			}

			got := classifyConcurrently(t, g, test)
			for i := range row.want {
				if got[i] != row.want[i] {
					t.Fatalf("class[%d] = %d, want %d", i, got[i], row.want[i])
				}
			}
			if got := host.Resident() - hostBefore; got != charge {
				t.Fatalf("host holds %d bytes after serving, want %d", got, charge)
			}

			if err := g.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if host.Resident() != hostBefore || f.Host.Resident() != trainBefore {
				t.Fatalf("after Close: host resident %d, want %d; training host %d, want %d",
					host.Resident(), hostBefore, f.Host.Resident(), trainBefore)
			}
			if _, err := g.ClassifyBatch(test.Images[:g.InputSize()]); !errors.Is(err, ErrShardGroupClosed) {
				t.Fatalf("ClassifyBatch after Close = %v, want ErrShardGroupClosed", err)
			}
		})
	}
	t.Run("streaming tiled MLP", testStreamingTiledMLP)
}

// tiledMLPConfig is an MLP whose fully connected weights span several
// 1 MiB sealed segments: 784x1024 (four, on whole rows), 1024x768
// (three, on whole rows), 768x1000 (three, split mid-row) and 1000x10.
const tiledMLPConfig = "[net]\nbatch=4\nlearning_rate=0.1\nchannels=1\nheight=28\nwidth=28\n\n" +
	"[connected]\noutput=1024\nactivation=leaky\n\n" +
	"[connected]\noutput=768\nactivation=leaky\n\n" +
	"[connected]\noutput=1000\nactivation=leaky\n\n" +
	"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n"

// streamFloats runs images through the group's stages as a batch does,
// handing plain activations from stage to stage, and returns a copy of
// the last stage's output floats.
func streamFloats(t *testing.T, g *ShardGroup, images []float32) []float32 {
	t.Helper()
	n := len(images) / g.InputSize()
	x := images
	for _, s := range g.shards {
		err := s.encl.Ecall(func() error {
			var err error
			x, err = g.forward(s, x, n)
			return err
		})
		if err != nil {
			t.Fatalf("stage %d: %v", s.idx, err)
		}
	}
	return append([]float32(nil), x...)
}

// testStreamingTiledMLP: a streaming group over tiledMLPConfig — its
// row-aligned layers multiplied segment by segment as they open, the
// mid-row one opened into its own buffers — outputs the resident
// replica's floats bit for bit at GOMAXPROCS 1, 2 and 8, and classifies
// as it does through the sealed hand-offs. One flipped byte in a sealed
// weight segment, tiled or mid-row, fails the batch with an
// authentication error, no classes and the host back at its parked
// reservations; with the byte restored the group serves again.
func testStreamingTiledMLP(t *testing.T) {
	f := newFramework(t, Config{ModelConfig: tiledMLPConfig, PMBytes: 128 << 20, Seed: 3, TrainOverheadBytes: 1 << 20})
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	prof := f.Enclave.Profile()
	rep, err := f.NewReplicaOn(enclave.NewHost(prof, enclave.WithHostEPC(enclave.UsableEPC)), 3)
	if err != nil {
		t.Fatalf("NewReplicaOn: %v", err)
	}
	defer rep.Close()
	host := enclave.NewHost(prof, enclave.WithHostEPC(8<<20))
	g, err := f.NewShardGroup(ShardOptions{Host: host, Batch: 4, OverheadBytes: 64 << 10, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	if r := g.Report(); !r.Streaming || r.Shards < 3 {
		t.Fatalf("group over plan %v reports %+v; want a streaming pipeline", g.Plan(), r)
	}
	images := make([]float32, 4*g.InputSize())
	rng := rand.New(rand.NewSource(4))
	for i := range images {
		images[i] = rng.Float32()
	}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			want, err := rep.shards[0].net.Forward(images, 4, false)
			if err != nil {
				t.Fatalf("replica Forward: %v", err)
			}
			got := streamFloats(t, g, images)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("GOMAXPROCS %d: out[%d] = %v, replica %v", procs, i, got[i], want[i])
				}
			}
			wantClasses, err := rep.ClassifyBatch(images)
			if err != nil {
				t.Fatalf("replica ClassifyBatch: %v", err)
			}
			gotClasses, err := g.ClassifyBatch(images)
			if err != nil || !slices.Equal(gotClasses, wantClasses) {
				t.Fatalf("GOMAXPROCS %d: group classes %v (%v), replica %v", procs, gotClasses, err, wantClasses)
			}
		}()
	}

	parked := host.Resident()
	for _, layer := range []int{0, 2} { // tiled, mid-row
		si := 0
		for g.shards[si].rng.To <= layer {
			si++
		}
		half, off, n := g.shards[si].open.SegmentAt(layer-g.shards[si].rng.From, 1)
		flip := func() {
			if err := f.Rom.FillPayload(half, off+n/2, 1, func(dst []byte) error { dst[0] ^= 0x40; return nil }); err != nil {
				t.Fatalf("FillPayload: %v", err)
			}
		}
		flip()
		classes, err := g.ClassifyBatch(images)
		if !errors.Is(err, engine.ErrAuth) || classes != nil {
			t.Fatalf("layer %d segment flipped: classes %v, err %v; want ErrAuth and none", layer, classes, err)
		}
		if got := host.Resident(); got != parked {
			t.Fatalf("layer %d segment flipped: host holds %d bytes after the failed batch, want the parked %d", layer, got, parked)
		}
		flip()
		if _, err := g.ClassifyBatch(images); err != nil {
			t.Fatalf("layer %d segment restored: %v", layer, err)
		}
	}
}

// TestShardGroupSingleShardMatchesReplica: a one-shard plan is the
// replica — same snapshot, same forward, bit-identical classes, the
// same whole-model report, and a reservation by the same rule at its
// own batch bound.
func TestShardGroupSingleShardMatchesReplica(t *testing.T) {
	f, test := trainedShardFramework(t, 6)
	before := f.Host.Resident()
	rep, err := f.NewReplica(3)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()
	if got, want := f.Host.Resident()-before, f.ReplicaFootprint(0); got != want {
		t.Fatalf("replica reserved %d bytes, want %d", got, want)
	}

	before = f.Host.Resident()
	g, err := f.NewShardGroup(ShardOptions{Shards: 1, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	if got, want := f.Host.Resident()-before, f.ReplicaFootprint(8); got != want {
		t.Fatalf("one-shard group reserved %d bytes, want %d", got, want)
	}
	if gr, rr := g.Report(), rep.Report(); gr != rr || gr.Shards != 0 || gr.Streaming {
		t.Fatalf("group reports %+v, replica %+v; want the same resident whole-model report", gr, rr)
	}
	if g.Version() != rep.Version() || g.Iteration() != rep.Iteration() {
		t.Fatalf("group serves v%d iter %d, replica v%d iter %d",
			g.Version(), g.Iteration(), rep.Version(), rep.Iteration())
	}

	in := g.InputSize()
	for start := 0; start+8 <= test.N; start += 8 {
		images := test.Images[start*in : (start+8)*in]
		want, err := rep.ClassifyBatch(images)
		if err != nil {
			t.Fatalf("replica ClassifyBatch: %v", err)
		}
		got, err := g.ClassifyBatch(images)
		if err != nil {
			t.Fatalf("group ClassifyBatch: %v", err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch at %d: class[%d] = %d, want %d", start, i, got[i], want[i])
			}
		}
	}
}

// TestShardGroupStreamingStaysUnderKnee: on a serving host too small
// for the whole model, the group streams ranges from PM — the host
// never crosses the paging knee and pays zero faults, while a
// monolithic replica on an identical host is over the knee from the
// start and all-misses its restore.
func TestShardGroupStreamingStaysUnderKnee(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	// A serving budget far below one whole replica (~1.05 MB here):
	// the monolithic path must overcommit, while per-layer shards at
	// batch 2 (largest hot range ~75 KB) stream within it.
	budget := 128 << 10
	prof := f.Enclave.Profile()

	mono := enclave.NewHost(prof, enclave.WithHostEPC(budget))
	rep, err := f.NewReplicaOn(mono, 3)
	if err != nil {
		t.Fatalf("NewReplicaOn: %v", err)
	}
	defer rep.Close()
	if !mono.OverEPC() {
		t.Fatalf("monolithic replica host under EPC (resident %d, budget %d); test needs the knee", mono.Resident(), budget)
	}
	monoFaults := mono.Stats().PageSwaps
	if monoFaults == 0 {
		t.Fatal("monolithic restore over the knee paid no faults")
	}

	shardHost := enclave.NewHost(prof, enclave.WithHostEPC(budget))
	g, err := f.NewShardGroup(ShardOptions{
		Host:          shardHost,
		Batch:         2,
		OverheadBytes: 8 << 10,
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	if !g.Report().Streaming {
		t.Fatalf("group not streaming on a %d-byte host (plan %v)", budget, g.Plan())
	}

	got := groupClassifyAll(t, g, test, 2)
	want := make([]int, test.N)
	for i := range want {
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify: %v", err)
		}
		want[i] = cls
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streaming class[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	hs := shardHost.Stats()
	if hs.PageSwaps != 0 {
		t.Fatalf("streaming group paid %d faults; want 0 under the knee", hs.PageSwaps)
	}
	if hs.PeakResidentBytes > budget {
		t.Fatalf("streaming group peaked at %d bytes over the %d budget", hs.PeakResidentBytes, budget)
	}
	if 20*hs.PageSwaps >= monoFaults {
		t.Fatalf("sharded faults %d not under 5%% of monolithic %d", hs.PageSwaps, monoFaults)
	}
	if g.Report().ShardRestores == 0 {
		t.Fatal("streaming group recorded no PM range restores")
	}
}

// TestShardGroupHoldsParametersOnce: a serving group never trains, so
// after serving batches no layer of any shard holds a gradient, and the
// parameter bytes its layers hold are exactly the parameter term of the
// footprint its shard enclave reserves.
func TestShardGroupHoldsParametersOnce(t *testing.T) {
	f, test := trainedShardFramework(t, 2)
	g, err := f.NewShardGroup(ShardOptions{Shards: 3, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	groupClassifyAll(t, g, test, g.Batch())
	for _, s := range g.shards {
		held, act := 0, 4*g.Batch()*s.net.Layers[0].InShape().Size()
		for li, l := range s.net.Layers {
			for _, p := range l.Params() {
				held += 4 * len(p)
			}
			for bi, gr := range l.Grads() {
				if gr != nil {
					t.Fatalf("shard %d layer %d (%s) holds gradient slot %d after serving", s.idx, li, l.Kind(), bi)
				}
			}
			act += 4 * g.Batch() * l.OutShape().Size()
		}
		fp, err := s.net.ShardFootprintAt(darknet.ShardRange{From: 0, To: len(s.net.Layers)}, g.Batch(), darknet.FP32)
		if err != nil {
			t.Fatalf("ShardFootprintAt: %v", err)
		}
		if held != fp-act {
			t.Fatalf("shard %d holds %d parameter bytes; its footprint's parameter term is %d", s.idx, held, fp-act)
		}
	}
}

// TestShardGroupRefreshAndRotate: the group follows publication
// versions and key rotation through Refresh alone.
func TestShardGroupRefreshAndRotate(t *testing.T) {
	f, test := trainedShardFramework(t, 4)
	g, err := f.NewShardGroup(ShardOptions{Shards: 3, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	v1 := g.Version()

	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	iter, err := g.Refresh()
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if g.Version() <= v1 {
		t.Fatalf("Refresh left version %d, want > %d", g.Version(), v1)
	}
	if iter != f.Iteration() {
		t.Fatalf("Refresh iteration %d, want %d", iter, f.Iteration())
	}

	if _, err := f.RotateKey(); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := g.Refresh(); err != nil {
		t.Fatalf("Refresh after RotateKey: %v", err)
	}
	// Still serving correctly under the new key and version.
	want, err := f.Classify(test.Image(0))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	got, err := g.ClassifyBatch(test.Image(0))
	if err != nil {
		t.Fatalf("ClassifyBatch after rotate: %v", err)
	}
	if got[0] != want {
		t.Fatalf("after rotate class = %d, want %d", got[0], want)
	}
}

// TestShardGroupRecordsManifest: a split the group planned itself is
// recorded as the serving layout — its layer ranges and no hosts —
// durably and re-readably; a group given an explicit plan records
// nothing.
func TestShardGroupRecordsManifest(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	g, err := f.NewShardGroup(ShardOptions{Shards: 3, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	numLayers := g.Plan()[len(g.Plan())-1].To
	if got := f.ServingLayout(numLayers); !slices.Equal(got.Plan, g.Plan()) || got.Hosts != nil {
		t.Fatalf("serving layout %v, want the plan %v and no hosts", got, g.Plan())
	}

	explicit := []darknet.ShardRange{{From: 0, To: 1}, {From: 1, To: numLayers}}
	g2, err := f.NewShardGroup(ShardOptions{Plan: explicit, Batch: 8, Seed: 6})
	if err != nil {
		t.Fatalf("NewShardGroup explicit: %v", err)
	}
	defer g2.Close()
	if got := f.ServingLayout(numLayers); !slices.Equal(got.Plan, g.Plan()) {
		t.Fatalf("an explicit plan replaced the recorded layout: %v", got)
	}
}

// TestShardGroupResplitClearsFleetHosts: a fleet's placement survives
// only alongside the plan it was placed for. A single-host group that
// adopts the recorded plan keeps the hosts on record; one that splits
// the model differently records its own plan with no hosts, so the
// next fleet finds no placement and replans.
func TestShardGroupResplitClearsFleetHosts(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	g, err := f.NewShardGroup(ShardOptions{Shards: 3, Batch: 2, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	plan := g.Plan()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	numLayers := plan[len(plan)-1].To
	hosts := make([]int, len(plan))
	for i := range hosts {
		hosts[i] = i % 2
	}
	fleet := mirror.Layout{Plan: plan, Hosts: [][]int{hosts}}
	if err := f.RecordServingLayout(fleet); err != nil {
		t.Fatalf("RecordServingLayout: %v", err)
	}

	same, err := f.NewShardGroup(ShardOptions{Batch: 2, Seed: 6})
	if err != nil {
		t.Fatalf("NewShardGroup on the recorded plan: %v", err)
	}
	if !slices.Equal(same.Plan(), plan) {
		t.Fatalf("auto plan %v, want the recorded %v", same.Plan(), plan)
	}
	if _, err := same.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	same.Close()
	if got := f.ServingLayout(numLayers); len(got.Hosts) != 1 || !slices.Equal(got.Hosts[0], hosts) {
		t.Fatalf("a group on the placed plan dropped the fleet hosts: %v", got)
	}

	resplit, err := f.NewShardGroup(ShardOptions{Shards: 2, Batch: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewShardGroup re-split: %v", err)
	}
	defer resplit.Close()
	if slices.Equal(resplit.Plan(), plan) {
		t.Fatalf("re-split plan %v equals the placed one", plan)
	}
	if got := f.ServingLayout(numLayers); !slices.Equal(got.Plan, resplit.Plan()) || got.Hosts != nil {
		t.Fatalf("after a re-split the layout is %v, want plan %v and no hosts", got, resplit.Plan())
	}
}

// TestShardGroupReusesPersistedPlan: auto planning honours the
// layout a previous group recorded — across a framework crash and
// recovery, and whatever the new host's headroom would have suggested.
func TestShardGroupReusesPersistedPlan(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	// First group: force a fine split on a small host and record it.
	small := enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(128<<10))
	g1, err := f.NewShardGroup(ShardOptions{Host: small, Batch: 2, OverheadBytes: 8 << 10, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	want := g1.Plan()
	if len(want) < 2 {
		t.Fatalf("plan %v too coarse for the reuse test", want)
	}
	if err := g1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	// Second group auto-plans on a roomy host, which alone would yield
	// a coarser split; the recorded layout wins.
	g2, err := f.NewShardGroup(ShardOptions{Batch: 2, OverheadBytes: 8 << 10, Seed: 6})
	if err != nil {
		t.Fatalf("NewShardGroup after recover: %v", err)
	}
	defer g2.Close()
	got := g2.Plan()
	if len(got) != len(want) {
		t.Fatalf("recreated plan %v, want the recorded %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recreated plan %v, want the recorded %v", got, want)
		}
	}

	// An explicit option still replans.
	g3, err := f.NewShardGroup(ShardOptions{Shards: 1, Batch: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewShardGroup explicit: %v", err)
	}
	defer g3.Close()
	if len(g3.Plan()) != 1 {
		t.Fatalf("explicit single-shard plan got %v", g3.Plan())
	}
}

// TestShardGroupRejectsOversizedBatch: the plan bounds the micro-batch.
func TestShardGroupRejectsOversizedBatch(t *testing.T) {
	f, test := trainedShardFramework(t, 2)
	g, err := f.NewShardGroup(ShardOptions{Shards: 2, Batch: 4, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	in := g.InputSize()
	if _, err := g.ClassifyBatch(test.Images[:8*in]); !errors.Is(err, ErrShardBatch) {
		t.Fatalf("oversized batch = %v, want ErrShardBatch", err)
	}
	if _, err := g.ClassifyBatch(test.Images[:in/2]); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

// TestInt8ShardGroupMatchesReplica: an explicit three-shard int8 group
// restores each range of the int8 variant and serves exactly what the
// int8 one-range replica serves — the same class for every test image,
// and bit-identical output probabilities — at GOMAXPROCS 1, 2 and 8.
func TestInt8ShardGroupMatchesReplica(t *testing.T) {
	f, test := trainedShardFramework(t, 6)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rep, err := f.NewShardGroup(ShardOptions{Shards: 1, Precision: darknet.Int8, Seed: 3})
			if err != nil {
				t.Fatalf("int8 replica: %v", err)
			}
			defer rep.Close()
			g, err := f.NewShardGroup(ShardOptions{Shards: 3, Precision: darknet.Int8, Seed: 5})
			if err != nil {
				t.Fatalf("int8 shard group: %v", err)
			}
			defer g.Close()
			if len(g.Plan()) != 3 || g.Report().Precision != darknet.Int8 || g.Version() != rep.Version() {
				t.Fatalf("group plan %v at %v serving v%d, want 3 int8 ranges of v%d",
					g.Plan(), g.Report().Precision, g.Version(), rep.Version())
			}

			if got, want := groupClassifyAll(t, g, test, g.Batch()), groupClassifyAll(t, rep, test, g.Batch()); !slices.Equal(got, want) {
				t.Fatalf("int8 group classes %v, replica %v", got, want)
			}
			in := g.InputSize()
			for start := 0; start < test.N; start += g.Batch() {
				n := min(g.Batch(), test.N-start)
				x := test.Images[start*in : (start+n)*in]
				want, err := rep.shards[0].net.Forward(x, n, false)
				if err != nil {
					t.Fatalf("replica Forward: %v", err)
				}
				got := x
				for _, s := range g.shards {
					out, err := s.net.Forward(got, n, false)
					if err != nil {
						t.Fatalf("shard %d Forward: %v", s.idx, err)
					}
					got = slices.Clone(out)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("image %d output %d: group %v, replica %v", start+i/10, i%10, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestInt8GroupLeavesShardManifest: the serving layout records fp32
// plans only. An int8 group plans afresh on int8 footprints — it
// neither adopts the recorded split nor records its own — so an fp32
// group auto-planned afterwards restores the split on record.
func TestInt8GroupLeavesShardManifest(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	small := enclave.NewHost(f.Enclave.Profile(), enclave.WithHostEPC(128<<10))
	build := func(opts ShardOptions) []darknet.ShardRange {
		t.Helper()
		g, err := f.NewShardGroup(opts)
		if err != nil {
			t.Fatalf("NewShardGroup(%+v): %v", opts, err)
		}
		defer g.Close()
		return g.Plan()
	}
	recorded := build(ShardOptions{Host: small, Batch: 2, OverheadBytes: 8 << 10, Seed: 5})
	if len(recorded) < 2 {
		t.Fatalf("fp32 plan %v too coarse for the layout test", recorded)
	}
	int8Auto := build(ShardOptions{Host: small, Batch: 2, OverheadBytes: 8 << 10, Precision: darknet.Int8, Seed: 6})
	if slices.Equal(int8Auto, recorded) {
		t.Fatalf("int8 auto plan %v is the recorded fp32 split; it must plan on int8 footprints", int8Auto)
	}
	if int8Count := build(ShardOptions{Shards: 3, Batch: 2, Precision: darknet.Int8, Seed: 7}); len(int8Count) != 3 {
		t.Fatalf("explicit int8 plan %v, want 3 ranges", int8Count)
	}
	// Auto-planned on the roomy training host, which alone would give a
	// coarser split: the recorded fp32 plan wins.
	if got := build(ShardOptions{Batch: 2, OverheadBytes: 8 << 10, Seed: 8}); !slices.Equal(got, recorded) {
		t.Fatalf("fp32 auto plan after int8 groups %v, want the recorded %v", got, recorded)
	}
}
