package mirror

import (
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"plinius/internal/mnist"
)

// TestBatchParallelWhileTraining races Batch's row fan-out against
// the darknet kernels running TrainBatch on the previous batch — the
// two loops that share the worker pool in a pipelined training
// iteration. They must share no mutable state (every range stages
// through buffers of its own); the -race CI shard enforces it.
func TestBatchParallelWhileTraining(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(80, 23)
	dm, err := LoadData(rom, eng, ds)
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	withProcs(t, 4)
	net := testNet(t, 5)
	batch := net.Config.Batch

	// Seed the trainer with one batch, then keep fetching and training
	// concurrently for a few rounds.
	x, y, err := dm.Batch(mrand.New(mrand.NewSource(41)), 32)
	if err != nil {
		t.Fatalf("seed Batch: %v", err)
	}
	var wg sync.WaitGroup
	var fetchErr, trainErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := mrand.New(mrand.NewSource(42))
		for i := 0; i < 6; i++ {
			if _, _, err := dm.Batch(rng, 32); err != nil {
				fetchErr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		imgLen := mnist.Rows * mnist.Cols
		for i := 0; i < 6; i++ {
			if _, err := net.TrainBatch(x[:batch*imgLen], y[:batch*mnist.Classes], batch); err != nil {
				trainErr = err
				return
			}
		}
	}()
	wg.Wait()
	if fetchErr != nil {
		t.Fatalf("Batch: %v", fetchErr)
	}
	if trainErr != nil {
		t.Fatalf("TrainBatch: %v", trainErr)
	}
}

// expectedBatch reconstructs the batch Batch must produce for a given
// rng seed: indices are drawn on the caller in order, then rows are
// fetched — so a cloned rng plus Row gives the exact reference.
func expectedBatch(t *testing.T, dm *DataMatrix, seed int64, size int) (x, y []float32) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	imgLen := mnist.Rows * mnist.Cols
	x = make([]float32, size*imgLen)
	y = make([]float32, size*mnist.Classes)
	for b := 0; b < size; b++ {
		img, label, err := dm.Row(rng.Intn(dm.N()))
		if err != nil {
			t.Fatalf("Row: %v", err)
		}
		copy(x[b*imgLen:], img)
		copy(y[b*mnist.Classes:], label)
	}
	return x, y
}

// TestBatchParallelMatchesSerial: the sampled batch is identical no
// matter how many workers decrypt it — indices are pre-drawn on the
// caller, so fan-out must not change what is sampled, only who loads
// it. Runs sealed and plaintext matrices at several GOMAXPROCS values
// (the batch is large enough to span several batchParallelBytes
// ranges).
func TestBatchParallelMatchesSerial(t *testing.T) {
	for _, enc := range []bool{true, false} {
		_, rom := testHeap(t, 16<<20)
		eng := testEngine(t)
		ds := mnist.Synthetic(120, 21)
		var opts []DataOption
		if !enc {
			opts = append(opts, WithPlaintextRows())
		}
		dm, err := LoadData(rom, eng, ds, opts...)
		if err != nil {
			t.Fatalf("LoadData: %v", err)
		}
		const seed, size = 31, 32
		if size*dm.storedRow <= batchParallelBytes {
			t.Fatalf("batch too small to exercise fan-out: %d <= %d",
				size*dm.storedRow, batchParallelBytes)
		}
		wantX, wantY := expectedBatch(t, dm, seed, size)
		for _, procs := range []int{1, 2, 3, 8} {
			withProcs(t, procs)
			x, y, err := dm.Batch(mrand.New(mrand.NewSource(seed)), size)
			if err != nil {
				t.Fatalf("enc=%v GOMAXPROCS=%d Batch: %v", enc, procs, err)
			}
			for i := range wantX {
				if x[i] != wantX[i] {
					t.Fatalf("enc=%v GOMAXPROCS=%d x[%d]: %v, want %v", enc, procs, i, x[i], wantX[i])
				}
			}
			for i := range wantY {
				if y[i] != wantY[i] {
					t.Fatalf("enc=%v GOMAXPROCS=%d y[%d]: %v, want %v", enc, procs, i, y[i], wantY[i])
				}
			}
		}
	}
}

// TestBatchConcurrent: Batch is safe to call from multiple goroutines
// (each with its own rng) while the internal row fan-out is active —
// the matrix is read-only and every worker stages through its own
// scratch. Exercised by the -race CI shard.
func TestBatchConcurrent(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(90, 22)
	dm, err := LoadData(rom, eng, ds)
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	withProcs(t, 4)
	const goroutines, size = 4, 32
	// Per-goroutine reference for the first draw, computed serially up
	// front; later draws advance each goroutine's private rng.
	wantX := make([][]float32, goroutines)
	wantY := make([][]float32, goroutines)
	for g := range wantX {
		wantX[g], wantY[g] = expectedBatch(t, dm, int64(100+g), size)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(100 + g)))
			for iter := 0; iter < 3; iter++ {
				x, y, err := dm.Batch(rng, size)
				if err != nil {
					errs[g] = fmt.Errorf("iter %d: %w", iter, err)
					return
				}
				if len(x) != size*mnist.Rows*mnist.Cols || len(y) != size*mnist.Classes {
					errs[g] = fmt.Errorf("iter %d: batch shapes %d/%d", iter, len(x), len(y))
					return
				}
				if iter == 0 {
					for i := range wantX[g] {
						if x[i] != wantX[g][i] {
							errs[g] = fmt.Errorf("x[%d]: %v, want %v", i, x[i], wantX[g][i])
							return
						}
					}
					for i := range wantY[g] {
						if y[i] != wantY[g][i] {
							errs[g] = fmt.Errorf("y[%d]: %v, want %v", i, y[i], wantY[g][i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
