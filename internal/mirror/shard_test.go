package mirror

import (
	"errors"
	mrand "math/rand"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/romulus"
)

// TestMirrorInRangeRestoresExactSlice: restoring a shard sub-network
// from a published snapshot installs exactly the parameters the full
// restore installs for that layer range, and the shared iteration
// counter.
func TestMirrorInRangeRestoresExactSlice(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	net.Iteration = 42

	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	publishNet(t, p, eng, net)
	pin, err := p.Pin(0)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}

	// Full restore reference.
	full := testNet(t, 2)
	if _, err := m.MirrorIn(full); err != nil {
		t.Fatalf("MirrorIn: %v", err)
	}

	// Restore each shard of a per-layer plan into a fresh network and
	// compare the slice against the reference.
	fresh := testNet(t, 3)
	plan, err := fresh.PlanShards(1, 1) // one layer per shard
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	for _, r := range plan {
		sub, err := fresh.Shard(r)
		if err != nil {
			t.Fatalf("Shard(%v): %v", r, err)
		}
		iter, err := m.MirrorInRange(sub, fresh.ParamLayersBefore(r.From))
		if err != nil {
			t.Fatalf("MirrorInRange(%v): %v", r, err)
		}
		if iter != 42 || sub.Iteration != 42 {
			t.Fatalf("MirrorInRange(%v) iteration = %d/%d, want 42", r, iter, sub.Iteration)
		}
	}
	if !netsEqual(full, fresh) {
		t.Fatal("sharded range restores do not reproduce the full restore")
	}
}

// TestMirrorInRangeShapeMismatch rejects a shard restored at the wrong
// node offset.
func TestMirrorInRangeShapeMismatch(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)

	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	publishNet(t, p, eng, net)
	pin, err := p.Pin(0)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	if _, err := m.MirrorInRange(net, 1); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("offset full restore = %v, want ErrShapeMismatch", err)
	}
}

// TestShardManifestRoundTripAndReuse: the manifest persists across a
// publication re-open (crash consistency), rewrites in place when the
// new plan fits, and reallocates when it grows.
func TestShardManifestRoundTripAndReuse(t *testing.T) {
	dev, rom := testHeap(t, 32<<20)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	if m, err := p.ShardManifest(); err != nil || m != nil {
		t.Fatalf("fresh manifest = %v, %v; want nil, nil", m, err)
	}
	if err := p.RecordShardManifest(nil); err == nil {
		t.Fatal("RecordShardManifest(nil) accepted an empty plan")
	}

	want := []ShardManifestEntry{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}}
	if err := p.RecordShardManifest(want); err != nil {
		t.Fatalf("RecordShardManifest: %v", err)
	}

	// Re-open after a crash: the manifest must survive intact.
	dev.Crash()
	rom2, err := romulus.Open(dev)
	if err != nil {
		t.Fatalf("romulus.Open after crash: %v", err)
	}
	p2, err := OpenPublication(rom2)
	if err != nil {
		t.Fatalf("OpenPublication after crash: %v", err)
	}
	got, err := p2.ShardManifest()
	if err != nil {
		t.Fatalf("ShardManifest after crash: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("manifest after crash has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("manifest[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// A smaller plan rewrites the same region in place.
	off1, _ := rom2.LoadUint64(p2.hdrOff + pubHdrManifestOff)
	smaller := []ShardManifestEntry{{From: 0, To: 5}}
	if err := p2.RecordShardManifest(smaller); err != nil {
		t.Fatalf("RecordShardManifest smaller: %v", err)
	}
	off2, _ := rom2.LoadUint64(p2.hdrOff + pubHdrManifestOff)
	if off1 != off2 {
		t.Fatalf("smaller manifest moved the region: %d -> %d", off1, off2)
	}
	if got, _ := p2.ShardManifest(); len(got) != 1 || got[0] != smaller[0] {
		t.Fatalf("smaller manifest read back %v", got)
	}

	// A larger plan outgrows the region and reallocates.
	larger := []ShardManifestEntry{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5}}
	if err := p2.RecordShardManifest(larger); err != nil {
		t.Fatalf("RecordShardManifest larger: %v", err)
	}
	off3, _ := rom2.LoadUint64(p2.hdrOff + pubHdrManifestOff)
	if off3 == off1 {
		t.Fatal("outgrown manifest was not reallocated")
	}
	if got, _ := p2.ShardManifest(); len(got) != len(larger) {
		t.Fatalf("larger manifest read back %d entries, want %d", len(got), len(larger))
	}
}

// TestShardManifestIndependentOfPublishes: publishing more versions
// never disturbs the recorded manifest.
func TestShardManifestIndependentOfPublishes(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(2, 4, 8)),
		mrand.New(mrand.NewSource(5)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	want := []ShardManifestEntry{{From: 0, To: 1}, {From: 1, To: 3}}
	if err := p.RecordShardManifest(want); err != nil {
		t.Fatalf("RecordShardManifest: %v", err)
	}
	for i := 0; i < 4; i++ {
		net.Iteration = i + 1
		publishNet(t, p, eng, net)
	}
	got, err := p.ShardManifest()
	if err != nil {
		t.Fatalf("ShardManifest: %v", err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("manifest after publishes = %v, want %v", got, want)
	}
}
