package mirror

import (
	"errors"
	"testing"

	"plinius/internal/darknet"
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

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	publishNet(t, p, eng, net)
	pin, err := p.Pin()
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

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	publishNet(t, p, eng, net)
	pin, err := p.Pin()
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
