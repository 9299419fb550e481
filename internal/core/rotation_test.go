package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/mirror"
	"plinius/internal/mnist"
)

// tornRotationFramework trains a model, then drives RotateKey into a
// deterministic mid-reseal abort: the marker is persisted and some —
// but not all — data rows are under the new key, exactly the state a
// power failure during rotation leaves behind.
func tornRotationFramework(t *testing.T, chunks int) (*Framework, []byte) {
	t.Helper()
	f, err := New(Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     64 << 20,
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 200 rows = 4 reseal chunks of 64; aborting after `chunks` leaves
	// a real mixed-epoch matrix.
	if err := f.LoadDataset(mnist.Synthetic(200, 11)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	oldKey := f.Key()

	f.testAbortResealAfter = chunks
	_, err = f.RotateKey()
	f.testAbortResealAfter = 0
	if !errors.Is(err, errAbortReseal) {
		t.Fatalf("RotateKey with abort hook = %v, want errAbortReseal", err)
	}
	// The torn state is real: the matrix now authenticates under
	// neither key alone.
	if _, _, err := f.Data.Row(0); err == nil {
		t.Fatal("row 0 still readable under the old key; reseal did not start")
	}
	rot, inProgress, err := mirror.OpenRotation(f.Rom)
	if err != nil || !inProgress || rot == nil {
		t.Fatalf("rotation marker = (%v, %v, %v), want in-progress", rot, inProgress, err)
	}
	return f, oldKey
}

// TestTornRotationRecovered: a crash mid-rotation recovers to a fully
// resealed state under the new key, with training and inference intact.
func TestTornRotationRecovered(t *testing.T) {
	f, oldKey := tornRotationFramework(t, 1)

	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	// The rotation must have completed: marker cleared, key flipped.
	if _, inProgress, err := mirror.OpenRotation(f.Rom); err != nil || inProgress {
		t.Fatalf("rotation marker after Recover = (%v, %v), want finished", inProgress, err)
	}
	if bytes.Equal(f.Key(), oldKey) {
		t.Fatal("key unchanged after recovered rotation")
	}
	// Every row decrypts under the post-rotation engine.
	for i := 0; i < f.Data.N(); i++ {
		if _, _, err := f.Data.Row(i); err != nil {
			t.Fatalf("row %d unreadable after recovery: %v", i, err)
		}
	}
	// The model resumed from the mirrored iteration and keeps training.
	if got := f.Iteration(); got != 3 {
		t.Fatalf("Iteration after recovery = %d, want 3", got)
	}
	if err := f.Train(context.Background(), StopAt(5)); err != nil {
		t.Fatalf("Train after recovered rotation: %v", err)
	}
	if _, err := f.Infer(mnist.Synthetic(64, 12)); err != nil {
		t.Fatalf("Infer after recovered rotation: %v", err)
	}
	// Serving state is consistent too: the republished snapshot is
	// under the new key and restorable by a fresh replica.
	rep, err := f.NewReplica(99)
	if err != nil {
		t.Fatalf("NewReplica after recovered rotation: %v", err)
	}
	defer rep.Close()
	if got := rep.Iteration(); got != 3 {
		t.Fatalf("replica iteration = %d, want 3", got)
	}
}

// TestTornRotationLateAbort exercises the other epoch boundary: the
// crash lands after most chunks flipped, so recovery has only the tail
// to reseal.
func TestTornRotationLateAbort(t *testing.T) {
	f, oldKey := tornRotationFramework(t, 3)
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if bytes.Equal(f.Key(), oldKey) {
		t.Fatal("key unchanged after recovered rotation")
	}
	for i := 0; i < f.Data.N(); i++ {
		if _, _, err := f.Data.Row(i); err != nil {
			t.Fatalf("row %d unreadable after recovery: %v", i, err)
		}
	}
	if err := f.Train(context.Background(), StopAt(4)); err != nil {
		t.Fatalf("Train after recovered rotation: %v", err)
	}
}

// TestTornRotationMirrorlessKeepsPublishedModel: with mirroring off
// the trained weights live only in the publication table; a torn
// rotation recovered there must republish the *trained* snapshot under
// the new key, not the random weights Recover builds.
func TestTornRotationMirrorlessKeepsPublishedModel(t *testing.T) {
	f, err := New(Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     64 << 20,
		MirrorFreq:  -1, // non-crash-resilient baseline: no training mirror
		Seed:        17,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.LoadDataset(mnist.Synthetic(200, 17)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	f.testAbortResealAfter = 1
	_, err = f.RotateKey()
	f.testAbortResealAfter = 0
	if !errors.Is(err, errAbortReseal) {
		t.Fatalf("RotateKey with abort hook = %v, want errAbortReseal", err)
	}
	f.Crash()
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, inProgress, err := mirror.OpenRotation(f.Rom); err != nil || inProgress {
		t.Fatalf("rotation marker after Recover = (%v, %v), want finished", inProgress, err)
	}
	// The republished snapshot must hold the trained model: a fresh
	// replica restores iteration 3, not iteration 0 noise.
	rep, err := f.NewReplica(42)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer rep.Close()
	if got := rep.Iteration(); got != 3 {
		t.Fatalf("replica iteration = %d, want 3 (trained model lost in rotation recovery)", got)
	}
	// Data matrix fully resealed under the new key.
	for i := 0; i < f.Data.N(); i++ {
		if _, _, err := f.Data.Row(i); err != nil {
			t.Fatalf("row %d unreadable after recovery: %v", i, err)
		}
	}
}

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
