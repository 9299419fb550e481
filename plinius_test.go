package plinius_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"plinius"
)

// The root-package tests exercise the public API exactly as a
// downstream user would.

func TestPublicAPITrainAndRecover(t *testing.T) {
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(1, 4, 16),
		PMBytes:     16 << 20,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.LoadDataset(plinius.SyntheticDataset(100, 1)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), plinius.StopAt(5)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	f.Crash()
	if err := f.Train(context.Background(), plinius.StopAt(6)); !errors.Is(err, plinius.ErrCrashedDown) {
		t.Fatalf("Train crashed = %v, want ErrCrashedDown", err)
	}
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if f.Iteration() != 5 {
		t.Fatalf("Iteration = %d, want 5", f.Iteration())
	}
}

// TestPublicAPIContextTrainingLifecycle drives the v2 context-first
// surface end to end: option-configured training, cancellation at a
// mirror-consistent boundary, versioned serving with refresh and key
// rotation, and the servability sentinel.
func TestPublicAPIContextTrainingLifecycle(t *testing.T) {
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(1, 4, 16),
		PMBytes:     32 << 20,
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := plinius.Serve(context.Background(), f, plinius.ServerOptions{}); !errors.Is(err, plinius.ErrNotServable) {
		t.Fatalf("Serve on dataset-less framework = %v, want ErrNotServable", err)
	}
	ds := plinius.SyntheticDataset(128, 11)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	var losses int
	err = f.Train(context.Background(), plinius.StopAt(4),
		plinius.WithProgress(func(int, float32) { losses++ }))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if losses != 4 {
		t.Fatalf("progress hook saw %d iterations, want 4", losses)
	}

	srv, err := plinius.Serve(context.Background(), f, plinius.ServerOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	if srv.Version() == 0 {
		t.Fatal("served model has no published version")
	}

	// Cancel an open-ended run; recovery lands on the cancelled iteration.
	ctx, cancel := context.WithCancel(context.Background())
	err = f.Train(ctx, plinius.WithProgress(func(iter int, _ float32) {
		if iter >= 8 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Train = %v, want context.Canceled", err)
	}
	cancelled := f.Iteration()

	// Publish the newer model and roll the pool forward.
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	iter, err := srv.Refresh(context.Background())
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if iter != cancelled {
		t.Fatalf("refreshed to iteration %d, want %d", iter, cancelled)
	}
	ver, err := srv.RotateKey(context.Background())
	if err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if ver != srv.Version() {
		t.Fatalf("RotateKey version %d, server reports %d", ver, srv.Version())
	}
	if _, err := srv.Classify(context.Background(), ds.Image(0)); err != nil {
		t.Fatalf("Classify after rotation: %v", err)
	}
}

func TestPublicAPIMissingDataset(t *testing.T) {
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(1, 4, 16),
		PMBytes:     16 << 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Train(context.Background(), plinius.StopAt(1)); !errors.Is(err, plinius.ErrNoDataset) {
		t.Fatalf("Train = %v, want ErrNoDataset", err)
	}
}

func TestPublicAPIServerProfiles(t *testing.T) {
	a := plinius.SGXEmlPM()
	b := plinius.EmlSGXPM()
	if a.Name == b.Name {
		t.Fatal("server profiles indistinguishable")
	}
	if !a.Enclave.HardwareSGX || b.Enclave.HardwareSGX {
		t.Fatal("SGX hardware flags wrong way around")
	}
}

func TestPublicAPIIDXDataset(t *testing.T) {
	ds := plinius.SyntheticDataset(10, 3)
	var imgs, lbls bytes.Buffer
	if err := plinius.WriteIDXDataset(&imgs, &lbls, ds); err != nil {
		t.Fatalf("WriteIDXDataset: %v", err)
	}
	got, err := plinius.ReadIDXDataset(&imgs, &lbls)
	if err != nil {
		t.Fatalf("ReadIDXDataset: %v", err)
	}
	if got.N != 10 {
		t.Fatalf("N = %d, want 10", got.N)
	}
}

func TestPublicAPISpotSimulation(t *testing.T) {
	trace := plinius.SyntheticSpotTrace(20, 0.09, 0.004, 5)
	if len(trace.Prices) != 20 {
		t.Fatalf("trace has %d points", len(trace.Prices))
	}
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(1, 4, 16),
		PMBytes:     16 << 20,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.LoadDataset(plinius.SyntheticDataset(100, 5)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	res, err := plinius.RunSpot(trace, plinius.SpotConfig{
		MaxBid: 10, TargetIters: 4, ItersPerInterval: 2,
	}, &plinius.SpotTrainer{F: f})
	if err != nil {
		t.Fatalf("RunSpot: %v", err)
	}
	if !res.Completed || res.Iterations != 4 {
		t.Fatalf("spot run: completed=%v iters=%d", res.Completed, res.Iterations)
	}
}

func TestPublicAPISyntheticModelConfig(t *testing.T) {
	cfg, err := plinius.SyntheticModelConfig(2 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	if cfg == "" {
		t.Fatal("empty config")
	}
}

func TestPublicAPIServe(t *testing.T) {
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(1, 4, 16),
		PMBytes:     32 << 20,
		Seed:        9,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ds := plinius.SyntheticDataset(128, 9)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), plinius.StopAt(4)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	srv, err := plinius.Serve(context.Background(), f, plinius.ServerOptions{Workers: 2, MaxBatch: 8})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	pred, err := srv.Classify(context.Background(), ds.Image(0))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if pred.Class < 0 || pred.Class >= 10 {
		t.Fatalf("implausible class %d", pred.Class)
	}
	want, err := f.Classify(ds.Image(0))
	if err != nil {
		t.Fatalf("sequential Classify: %v", err)
	}
	if pred.Class != want {
		t.Fatalf("served class %d, sequential class %d", pred.Class, want)
	}
	if st := srv.Stats(); st.Requests != 1 {
		t.Fatalf("stats requests = %d, want 1", st.Requests)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := srv.Classify(context.Background(), ds.Image(0)); !errors.Is(err, plinius.ErrServerClosed) {
		t.Fatalf("post-close Classify = %v, want ErrServerClosed", err)
	}
}
