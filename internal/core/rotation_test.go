package core

import (
	"bytes"
	"context"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
)

// TestCleanRotationLeavesNoMarker: a successful RotateKey clears the
// in-progress flag, so the next Recover changes nothing.
func TestCleanRotationLeavesNoMarker(t *testing.T) {
	f, err := New(Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     64 << 20,
		Seed:        13,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.LoadDataset(mnist.Synthetic(128, 13)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(2)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.RotateKey(); err != nil {
		t.Fatalf("RotateKey: %v", err)
	}
	if _, inProgress, err := mirror.OpenRotation(f.Rom); err != nil || inProgress {
		t.Fatalf("marker after clean rotation = (%v, %v), want finished", inProgress, err)
	}
	keyAfter := f.Key()
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !bytes.Equal(f.Key(), keyAfter) {
		t.Fatal("Recover rotated the key again despite a finished marker")
	}
	if got := f.Iteration(); got != 2 {
		t.Fatalf("Iteration = %d, want 2", got)
	}
}
