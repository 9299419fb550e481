package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"plinius/internal/mnist"
)

// TestParallelMirrorOutConcurrentWithClassify drives the fan-out
// MirrorOut path (model past the mirror-parallel threshold) while two
// replicas classify from pinned snapshots, one of them refreshing after
// every save, at GOMAXPROCS 2 and 8: parallel sealing inside the
// Romulus transaction, parallel restore ranges and forward passes over
// reused layer scratch all share one worker pool at once. Every batch
// answers exactly as the training enclave does, and the mirror restores
// the model bit for bit. Run with -race.
func TestParallelMirrorOutConcurrentWithClassify(t *testing.T) {
	cfgText, err := SyntheticModelConfig(1 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	f := newFramework(t, Config{
		ModelConfig:        cfgText,
		PMBytes:            24 << 20,
		Seed:               13,
		MirrorFreq:         1,
		TrainOverheadBytes: 1 << 20,
	})
	ds := mnist.Synthetic(64, 13)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(1)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want, err := f.ClassifyBatch(ds.Images)
	if err != nil {
		t.Fatalf("framework ClassifyBatch: %v", err)
	}
	var saved [][]float32
	for _, l := range f.Net.Layers {
		for _, p := range l.Params() {
			saved = append(saved, append([]float32(nil), p...))
		}
	}
	rep, err := f.NewReplica(3)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()
	// The second replica takes the refreshes, so it restores while rep
	// classifies.
	rep2, err := f.NewReplica(4)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep2.Close()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		serveWhileMirroring(t, f, ds, want, rep, rep2)
	}

	// Clear the live model, so the restore must write every parameter.
	for _, l := range f.Net.Layers {
		for _, p := range l.Params() {
			clear(p)
		}
	}
	if _, err := f.MirrorRestore(); err != nil {
		t.Fatalf("MirrorRestore: %v", err)
	}
	i := 0
	for _, l := range f.Net.Layers {
		for _, p := range l.Params() {
			for j, v := range p {
				if v != saved[i][j] {
					t.Fatalf("restored buffer %d [%d] = %v, saved %v", i, j, v, saved[i][j])
				}
			}
			i++
		}
	}
}

// serveWhileMirroring classifies on both replicas, checking every
// answer against want, while the framework saves, publishes and
// refreshes rep2 four times.
func serveWhileMirroring(t *testing.T, f *Framework, ds *mnist.Dataset, want []int, rep, rep2 *ShardGroup) {
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for _, g := range []*ShardGroup{rep, rep2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := g.InputSize()
			for i := 0; ; i = (i + 1) % ds.N {
				select {
				case <-stop:
					return
				default:
				}
				classes, err := g.ClassifyBatch(ds.Images[i*in : (i+1)*in])
				if err != nil {
					t.Errorf("GOMAXPROCS=%d: ClassifyBatch: %v", procs, err)
					return
				}
				if classes[0] != want[i] {
					t.Errorf("GOMAXPROCS=%d: image %d: replica class %d, framework %d", procs, i, classes[0], want[i])
					return
				}
			}
		}()
	}
	// Mirror out (parallel seal and ordered store), publish and restore
	// (parallel open) interleaved with the classify traffic.
	for r := 0; r < 4; r++ {
		if _, err := f.MirrorSave(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: MirrorSave: %v", procs, err)
		}
		if _, err := f.Publish(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: Publish: %v", procs, err)
		}
		if _, err := rep2.Refresh(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: Refresh: %v", procs, err)
		}
	}
}
