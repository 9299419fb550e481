package core

import (
	"hash/fnv"
	"math"
	"testing"

	"plinius/internal/darknet"
)

// paramHash fingerprints every parameter buffer of a network bit for
// bit, in layer order: of a quantized layer, its int8 codes and their
// scale too.
func paramHash(net *darknet.Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range net.Layers {
		params := l.Params()
		if ql, ok := l.(darknet.QuantWeightLayer); ok {
			params = append(params, ql.WeightScale())
			for _, q := range ql.QuantWeights() {
				h.Write([]byte{byte(q)})
			}
		}
		for _, p := range params {
			for _, v := range p {
				u := math.Float32bits(v)
				b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// TestRestoredBuildsSkipInitBitIdentical: the models built only to be
// overwritten from PM — Recover(true), a serving replica (a one-range
// group) — are parsed without the random weight init, and must hold
// exactly the trained model's parameters, as they did when the init ran
// first: the restore overwrites every parameter buffer.
func TestRestoredBuildsSkipInitBitIdentical(t *testing.T) {
	f, _ := trainedShardFramework(t, 4)
	want := paramHash(f.Net)
	iter := f.Iteration()

	rep, err := f.NewReplica(3)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()
	if len(rep.shards) != 1 {
		t.Fatalf("replica has %d ranges, want 1", len(rep.shards))
	}
	if got := paramHash(rep.shards[0].net); got != want {
		t.Fatalf("replica parameters %x differ from the published model %x", got, want)
	}

	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := paramHash(f.Net); got != want || f.Iteration() != iter {
		t.Fatalf("recovered model %x at iteration %d, want %x at %d", got, f.Iteration(), want, iter)
	}

	// A lazy recovery restores nothing yet, so it must still get the
	// seeded random init — the same model New builds.
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover(false): %v", err)
	}
	fresh := newFramework(t, f.cfg)
	if got, init := paramHash(f.Net), paramHash(fresh.Net); got != init {
		t.Fatalf("lazily recovered model %x is not the seeded init %x", got, init)
	}
}
