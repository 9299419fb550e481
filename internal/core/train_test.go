package core

import (
	"context"
	"errors"
	"testing"

	"plinius/internal/mnist"
)

// loadedFramework returns a framework with a small dataset loaded.
func loadedFramework(t *testing.T, cfg Config) *Framework {
	t.Helper()
	f := newFramework(t, cfg)
	if err := f.LoadDataset(mnist.Synthetic(64, 3)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	return f
}

// TestTrainCancelIsMirrorConsistent cancels a run mid-training and
// checks the contract: the error wraps context.Canceled, and after a
// crash the framework recovers to exactly the iteration the
// cancellation observed (the final flush made PM current).
func TestTrainCancelIsMirrorConsistent(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	stopAt := 0
	err := f.Train(ctx, StopAt(1000), WithProgress(func(iter int, _ float32) {
		if iter == 5 {
			stopAt = iter
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Train = %v, want context.Canceled", err)
	}
	if stopAt == 0 || f.Iteration() < stopAt {
		t.Fatalf("training stopped at %d before the cancel point %d", f.Iteration(), stopAt)
	}
	cancelled := f.Iteration()

	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != cancelled {
		t.Fatalf("recovered at iteration %d, want the cancelled iteration %d", got, cancelled)
	}
	// The run resumes cleanly from there.
	if err := f.Train(context.Background(), StopAt(cancelled+3)); err != nil {
		t.Fatalf("resume Train: %v", err)
	}
	if got := f.Iteration(); got != cancelled+3 {
		t.Fatalf("resumed to %d, want %d", f.Iteration(), cancelled+3)
	}
	// A target the model has already reached trains nothing.
	if err := f.Train(context.Background(), StopAt(cancelled)); err != nil {
		t.Fatalf("Train to a reached target: %v", err)
	}
	if got := f.Iteration(); got != cancelled+3 {
		t.Fatalf("Train to a reached target moved iteration to %d", got)
	}
}

// TestTrainCancelWithSparseMirrorFreq checks the final-flush path: with
// MirrorFreq 10, a cancellation between mirror points still leaves PM
// holding the cancelled iteration.
func TestTrainCancelWithSparseMirrorFreq(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorFreq = 10
	f := loadedFramework(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	err := f.Train(ctx, StopAt(100), WithProgress(func(iter int, _ float32) {
		if iter == 13 { // not a multiple of 10: PM mirror is at 10
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Train = %v, want context.Canceled", err)
	}
	cancelled := f.Iteration()
	if cancelled%cfg.MirrorFreq == 0 {
		t.Fatalf("test needs a cancel off the mirror grid, got iteration %d", cancelled)
	}
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != cancelled {
		t.Fatalf("recovered at %d, want the flushed cancel iteration %d", got, cancelled)
	}
}

// TestTrainPreCancelledContext checks an already-done context stops
// before any iteration runs.
func TestTrainPreCancelledContext(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := f.Train(ctx, StopAt(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Train = %v, want context.Canceled", err)
	}
	if got := f.Iteration(); got != 0 {
		t.Fatalf("pre-cancelled Train ran %d iterations", got)
	}
}

// TestEnsureModelCurrentAfterLazyRecover checks the publish path never
// snapshots the random post-Recover(false) weights: EnsureModelCurrent
// pulls the mirror in first.
func TestEnsureModelCurrentAfterLazyRecover(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	if err := f.Train(context.Background(), StopAt(6)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != 0 {
		t.Fatalf("lazy recover should leave iteration 0, got %d", got)
	}
	if err := f.EnsureModelCurrent(); err != nil {
		t.Fatalf("EnsureModelCurrent: %v", err)
	}
	if got := f.Iteration(); got != 6 {
		t.Fatalf("EnsureModelCurrent restored iteration %d, want 6", got)
	}
}

// TestPublishAndPinLifecycle exercises the framework-level publication
// API: versions advance, pinned restores see the pinned bytes.
func TestPublishAndPinLifecycle(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	if err := f.Train(context.Background(), StopAt(2)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if ver, err := f.LatestPublished(); err != nil || ver != 0 {
		t.Fatalf("LatestPublished before publish = %d, %v", ver, err)
	}
	v1, err := f.Publish()
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if v1 != 1 {
		t.Fatalf("first published version %d, want 1", v1)
	}
	if err := f.Train(context.Background(), StopAt(4)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	v2, err := f.Publish()
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if v2 != 2 {
		t.Fatalf("second published version %d, want 2", v2)
	}
	// Publication survives crash/recover: the table is in PM.
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ver, err := f.LatestPublished()
	if err != nil {
		t.Fatalf("LatestPublished after recover: %v", err)
	}
	if ver != v2 {
		t.Fatalf("latest after recover %d, want %d", ver, v2)
	}
}

// TestRotateKeyKeepsTrainingAndRecoveryWorking rotates the data key
// and checks the whole persistent state remains usable: training
// continues (data matrix re-sealed), crash recovery restores under the
// new key, and the key actually changed.
func TestRotateKeyKeepsTrainingAndRecoveryWorking(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	oldKey := f.Key()
	ver, err := f.RotateKey()
	if err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if ver == 0 {
		t.Fatal("RotateKey did not publish a new version")
	}
	if string(f.Key()) == string(oldKey) {
		t.Fatal("RotateKey left the data key unchanged")
	}
	// Training continues against the re-sealed data matrix.
	if err := f.Train(context.Background(), StopAt(5)); err != nil {
		t.Fatalf("Train after rotate: %v", err)
	}
	// And the re-sealed mirror recovers after a crash.
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover after rotate: %v", err)
	}
	if got := f.Iteration(); got != 5 {
		t.Fatalf("recovered at %d, want 5", got)
	}
	if err := f.Train(context.Background(), StopAt(6)); err != nil {
		t.Fatalf("Train after recover: %v", err)
	}
}

// TestServableSentinels checks the fail-fast servability probe.
func TestServableSentinels(t *testing.T) {
	f := newFramework(t, smallConfig())
	if err := f.Servable(); !errors.Is(err, ErrNoServableModel) {
		t.Fatalf("fresh dataset-less Servable = %v, want ErrNoServableModel", err)
	}
	if err := f.LoadDataset(mnist.Synthetic(64, 3)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Servable(); err != nil {
		t.Fatalf("Servable with dataset = %v", err)
	}
	f.Crash()
	if err := f.Servable(); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("crashed Servable = %v, want ErrCrashedDown", err)
	}
}
