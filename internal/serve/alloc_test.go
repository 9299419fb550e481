package serve

import (
	"context"
	"testing"
)

// TestClassifyAllocsPerRequest gates the serve path's allocations at
// micro-batch size 1, the size every low-load request rides: the
// request, its done channel, the batch trace and the pprof labels are
// reused, so what is left is the request's trace, the replica's class
// slice and the enclave call. 16.5 per request before the workers
// formed their own batches; the ceiling leaves room for a sync.Pool
// refill after a GC, not for a new per-request allocation.
func TestClassifyAllocsPerRequest(t *testing.T) {
	const ceiling = 4
	f, test := newTrainedFramework(t, 2)
	s, err := New(context.Background(), f, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	img := test.Image(0)
	classify := func() {
		if pred, err := s.Classify(context.Background(), img); err != nil || pred.BatchSize != 1 {
			t.Fatalf("Classify = %+v, %v; want a batch of 1", pred, err)
		}
	}
	for i := 0; i < 32; i++ { // warm the pools and the worker's buffers
		classify()
	}
	if got := testing.AllocsPerRun(500, classify); got > ceiling {
		t.Fatalf("%.1f allocations per request at batch size 1, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.1f allocations per request at batch size 1", got)
	}
}
