package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
)

// newTrainedFrameworkOverhead is newTrainedFramework with an explicit
// per-enclave overhead, so tests can steer the host working set.
func newTrainedFrameworkOverhead(t testing.TB, iters, overhead int) (*core.Framework, *mnist.Dataset) {
	t.Helper()
	return newTrainedFrameworkOn(t, nil, iters, overhead)
}

// newStreamingFramework trains a framework on a 1.2 MB host whose
// training enclave leaves about 150 KB of headroom: no whole replica
// fits, not even an int8 one, so ShardAuto shards, and the shards' hot
// set does not fit either, so the group streams from PM.
func newStreamingFramework(t testing.TB) (*core.Framework, *mnist.Dataset) {
	t.Helper()
	host := enclave.NewHost(core.SGXEmlPM().Enclave, enclave.WithHostEPC(1200<<10))
	return newTrainedFrameworkOn(t, host, 4, 1<<20)
}

// newTrainedFrameworkOn is newTrainedFrameworkOverhead on host (nil
// gives the framework a private one).
func newTrainedFrameworkOn(t testing.TB, host *enclave.Host, iters, overhead int) (*core.Framework, *mnist.Dataset) {
	t.Helper()
	f, err := core.New(core.Config{
		ModelConfig:        darknet.MNISTConfig(1, 4, 16),
		PMBytes:            64 << 20,
		Seed:               7,
		TrainOverheadBytes: overhead,
		Host:               host,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ds := mnist.Synthetic(256, 7)
	train, test, err := ds.Split(192)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := f.LoadDataset(train); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), core.StopAt(iters)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return f, test
}

// TestEPCPressureReportedWhenPoolOvercommits: framework plus replicas,
// each under the usable EPC alone, jointly overcommit the host — the
// acceptance regime for shared-EPC accounting. Serving still answers
// correctly, Stats reports nonzero EPCPressure, and the replicas pay
// contention paging.
func TestEPCPressureReportedWhenPoolOvercommits(t *testing.T) {
	// 40 MB overhead each: framework + 2 replicas = ~120 MB > 93.5 MB,
	// while every single enclave stays well under the budget.
	f, test := newTrainedFrameworkOverhead(t, 4, 40<<20)
	if f.Enclave.Footprint() > f.Host.UsableEPC() {
		t.Fatal("training enclave privately over EPC; contention regime needs it under")
	}
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()

	if !f.Host.OverEPC() {
		t.Fatalf("host not over EPC: resident %d MB", f.Host.Resident()>>20)
	}
	for i := 0; i < 32; i++ {
		if _, err := s.Classify(context.Background(), test.Image(i)); err != nil {
			t.Fatalf("Classify under pressure: %v", err)
		}
	}
	st := s.Stats()
	if st.EPCPressure <= 0 {
		t.Fatalf("EPCPressure = %v, want > 0 with host overcommitted", st.EPCPressure)
	}
	if st.HostResidentBytes <= enclave.UsableEPC {
		t.Fatalf("HostResidentBytes = %d, want > usable EPC", st.HostResidentBytes)
	}
	if hs := f.Host.Stats(); hs.PageSwaps == 0 {
		t.Fatal("no page swaps on an overcommitted host")
	}
}

// TestEPCPressureZeroWhenPoolFits: the complement — a pool sized
// within the budget reports no pressure and pays no paging.
func TestEPCPressureZeroWhenPoolFits(t *testing.T) {
	f, test := newTrainedFrameworkOverhead(t, 4, 10<<20)
	s, err := New(context.Background(), f, Options{Workers: 2, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify: %v", err)
	}
	st := s.Stats()
	if st.EPCPressure != 0 {
		t.Fatalf("EPCPressure = %v, want 0 with host under budget", st.EPCPressure)
	}
	if hs := f.Host.Stats(); hs.PageSwaps != 0 {
		t.Fatalf("PageSwaps = %d under budget, want 0", hs.PageSwaps)
	}
}

// TestPressureAwareAdmission sheds requests while the host is
// overcommitted past MaxEPCPressure, with errors matching both the
// generic overload sentinel and the EPC-specific one.
func TestPressureAwareAdmission(t *testing.T) {
	f, test := newTrainedFrameworkOverhead(t, 4, 40<<20)
	s, err := New(context.Background(), f, Options{
		Workers:         2,
		MaxBatch:        8,
		MaxQueueLatency: time.Millisecond,
		MaxEPCPressure:  0.05,
	})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if p := s.EPCPressure(); p <= 0.05 {
		t.Fatalf("EPCPressure = %v, test needs it above the 0.05 limit", p)
	}
	_, err = s.Classify(context.Background(), test.Image(0))
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, ErrEPCPressure) {
		t.Fatalf("Classify = %v, want ErrOverloaded and ErrEPCPressure", err)
	}
	if st := s.Stats(); st.EPCShed == 0 {
		t.Fatal("EPCShed not counted")
	}
}

// TestWorkersAutoSizesFromHeadroom: the auto-sized pool claims only
// what the host's remaining EPC allows, and never overcommits it.
func TestWorkersAutoSizesFromHeadroom(t *testing.T) {
	// Framework claims ~30 MB; headroom ~63 MB fits 2 more replicas of
	// ~30 MB each.
	f, test := newTrainedFrameworkOverhead(t, 4, 30<<20)
	per := f.ReplicaFootprint(8)
	wantWorkers := f.Host.Headroom() / per
	if max := runtime.GOMAXPROCS(0); wantWorkers > max {
		wantWorkers = max
	}
	if wantWorkers < 1 {
		wantWorkers = 1
	}
	s, err := New(context.Background(), f, Options{Workers: WorkersAuto, MaxBatch: 8, MaxQueueLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New server: %v", err)
	}
	defer s.Close()
	if got := s.Workers(); got != wantWorkers {
		t.Fatalf("Workers = %d, want %d (headroom %d / footprint %d)", got, wantWorkers, f.Host.Headroom()+got*per, per)
	}
	if f.Host.OverEPC() {
		t.Fatalf("auto-sized pool overcommitted the host: resident %d MB", f.Host.Resident()>>20)
	}
	if _, err := s.Classify(context.Background(), test.Image(0)); err != nil {
		t.Fatalf("Classify: %v", err)
	}
}
