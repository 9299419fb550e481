package core

import (
	"context"
	"errors"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
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

// TestShardGroupSingleShardMatchesReplica: a one-shard plan is the
// Replica path — same snapshot, same forward, bit-identical classes.
func TestShardGroupSingleShardMatchesReplica(t *testing.T) {
	f, test := trainedShardFramework(t, 6)
	rep, err := f.NewReplica(3)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()

	g, err := f.NewShardGroup(ShardOptions{Shards: 1, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()
	if r := g.Report(); r.Shards != 1 || r.Streaming {
		t.Fatalf("Shards=%d Streaming=%v, want a resident single shard", r.Shards, r.Streaming)
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

// TestShardGroupPipelineMatchesSequential: a multi-shard pipeline
// classifies exactly like the sequential enclave model, for every plan
// size, including concurrent pipelined submissions.
func TestShardGroupPipelineMatchesSequential(t *testing.T) {
	f, test := trainedShardFramework(t, 6)
	want := make([]int, test.N)
	for i := 0; i < test.N; i++ {
		cls, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("sequential classify %d: %v", i, err)
		}
		want[i] = cls
	}

	for _, shards := range []int{2, 4} {
		g, err := f.NewShardGroup(ShardOptions{Shards: shards, Batch: 8, Seed: 5})
		if err != nil {
			t.Fatalf("NewShardGroup(%d): %v", shards, err)
		}
		if g.Report().Shards < 2 {
			t.Fatalf("plan %v produced %d shards, want >= 2", g.Plan(), g.Report().Shards)
		}
		got := groupClassifyAll(t, g, test, 8)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: class[%d] = %d, want %d", shards, i, got[i], want[i])
			}
		}
		if err := g.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := g.ClassifyBatch(test.Images[:g.InputSize()]); !errors.Is(err, ErrShardGroupClosed) {
			t.Fatalf("ClassifyBatch after Close = %v, want ErrShardGroupClosed", err)
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
	prof := f.Host.Profile()

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

// TestShardGroupRefreshAndRotate: the group follows publication
// versions and key rotation, both while resident and while streaming.
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
	if _, err := g.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
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

// TestShardGroupRecordsManifest: the plan's node ranges are persisted
// alongside the publication slots, durably and re-readably.
func TestShardGroupRecordsManifest(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	g, err := f.NewShardGroup(ShardOptions{Shards: 3, Batch: 8, Seed: 5})
	if err != nil {
		t.Fatalf("NewShardGroup: %v", err)
	}
	defer g.Close()

	f.pmMu.Lock()
	entries, err := f.pub.ShardManifest()
	f.pmMu.Unlock()
	if err != nil {
		t.Fatalf("ShardManifest: %v", err)
	}
	plan := g.Plan()
	if len(entries) != len(plan) {
		t.Fatalf("manifest has %d entries for %d shards", len(entries), len(plan))
	}
	for i, e := range entries {
		if e.From != plan[i].From || e.To != plan[i].To {
			t.Fatalf("manifest[%d] = %+v, want the plan range %v", i, e, plan[i])
		}
	}
}

// TestShardGroupReusesPersistedPlan: auto planning honours the
// manifest a previous group recorded — across a framework crash and
// recovery, and whatever the new host's headroom would have suggested.
func TestShardGroupReusesPersistedPlan(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	// First group: force a fine split on a small host and record it.
	small := enclave.NewHost(f.Host.Profile(), enclave.WithHostEPC(128<<10))
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
	// a coarser split; the persisted manifest wins.
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
	if g3.Report().Shards != 1 {
		t.Fatalf("explicit single-shard plan got %d shards", g3.Report().Shards)
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
