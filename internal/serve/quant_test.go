package serve

import (
	"context"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
)

// TestQuantizedServeEndToEnd serves the int8 snapshot variant and
// checks the pool works end to end: predictions agree with the fp32
// enclave model on almost every image (the weights differ by at most
// half a quantization step), precision is reported everywhere, and
// Refresh keeps working — including across a key rotation, whose
// republish must carry the quant variant.
func TestQuantizedServeEndToEnd(t *testing.T) {
	f, test := newTrainedFramework(t, 8)

	s, err := New(context.Background(), f, Options{
		Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Millisecond,
		Quantized: true,
	})
	if err != nil {
		t.Fatalf("New quantized server: %v", err)
	}
	defer s.Close()

	if s.Precision() != darknet.Int8 {
		t.Fatalf("Precision() = %v, want int8", s.Precision())
	}
	if st := s.Stats(); st.Precision != darknet.Int8 {
		t.Fatalf("Stats().Precision = %v, want int8", st.Precision)
	}

	agree := 0
	for i := 0; i < test.N; i++ {
		want, err := f.Classify(test.Image(i))
		if err != nil {
			t.Fatalf("enclave classify %d: %v", i, err)
		}
		pred, err := s.Classify(context.Background(), test.Image(i))
		if err != nil {
			t.Fatalf("served classify %d: %v", i, err)
		}
		if pred.Class == want {
			agree++
		}
	}
	if agree < test.N*9/10 {
		t.Fatalf("int8/fp32 class agreement %d/%d, want >= 90%%", agree, test.N)
	}

	// Train further and refresh: the new version must publish a quant
	// variant (SetPublishQuantized is sticky) and restore cleanly.
	if err := f.Train(context.Background(), core.StopAt(2)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh after retrain: %v", err)
	}

	// Key rotation republishes under the new key (the sticky quantized
	// mode must carry the variant along) and re-provisions each replica;
	// the quantized pool must survive that too.
	if _, err := s.RotateKey(context.Background()); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("classify after rotation: %v", err)
	}
	if s.Precision() != darknet.Int8 {
		t.Fatalf("Precision() after refresh = %v, want int8", s.Precision())
	}
}

// TestQuantizedReplicaRefusesUntrainedRepublish: a quantized replica on
// a framework whose PM holds a published fp32 snapshot from a previous
// life (no quant variant, nothing trained in this enclave yet) must
// refuse to republish — republishing would supersede the real snapshot
// with this enclave's random init.
func TestQuantizedReplicaRefusesUntrainedRepublish(t *testing.T) {
	f, _ := newTrainedFramework(t, 4)
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	// Restart without restoring the model into the enclave: iteration is
	// back to 0, but PM still holds the published (fp32-only) version.
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := f.NewShardGroup(core.ShardOptions{Shards: 1, Precision: darknet.Int8, Seed: 1}); err == nil {
		t.Fatal("quantized replica on an untrained restart succeeded; it must refuse to republish over the real snapshot")
	}
}

// TestQuantizedShardServerServesInt8: on a host too small even for
// one int8 replica, a Quantized ShardAuto server builds a shard group
// that serves int8 — each range restored from the published int8
// variant — and classifies every test image exactly as the int8 clone
// of the trained model does.
func TestQuantizedShardServerServesInt8(t *testing.T) {
	f, test := newStreamingFramework(t)
	s, err := New(context.Background(), f, Options{
		Shards: ShardAuto, Quantized: true, MaxBatch: 4, ShardOverheadBytes: 8 << 10,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.Shards < 2 || st.Precision != darknet.Int8 {
		t.Fatalf("served %d shards at %v, want a shard group at int8", st.Shards, st.Precision)
	}
	pin, err := f.PinPublished()
	if err != nil {
		t.Fatalf("PinPublished: %v", err)
	}
	hasQuant := pin.HasQuant()
	pin.Release()
	if !hasQuant {
		t.Fatal("an int8 shard-group server published no int8 variant")
	}
	qnet, err := darknet.QuantizeNetwork(f.Net)
	if err != nil {
		t.Fatalf("QuantizeNetwork: %v", err)
	}
	for i := 0; i < test.N; i++ {
		want, err := qnet.ClassifyBatch(test.Image(i), 1)
		if err != nil {
			t.Fatalf("int8 reference classify %d: %v", i, err)
		}
		pred, err := s.Classify(context.Background(), test.Image(i))
		if err != nil {
			t.Fatalf("served classify %d: %v", i, err)
		}
		if pred.Class != want[0] {
			t.Fatalf("image %d: served class %d, int8 reference %d", i, pred.Class, want[0])
		}
	}
}
