package core

import (
	"context"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/mirror"
	"plinius/internal/obs"
)

// sealCost is what one framework call added to the process-wide seal
// counters and to the device's fences.
type sealCost struct {
	sealOps, sealedBytes float64
	fences               uint64
}

// measureSeals runs op and returns what it sealed and fenced.
func measureSeals(t *testing.T, f *Framework, op func() error) sealCost {
	t.Helper()
	ops := obs.Default().Counter("engine_seal_ops_total", "")
	bytes := obs.Default().Counter("mirror_sealed_payload_bytes_total", "")
	ops0, bytes0, fences0 := ops.Value(), bytes.Value(), f.PM.Stats().Fences
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return sealCost{ops.Value() - ops0, bytes.Value() - bytes0, f.PM.Stats().Fences - fences0}
}

// publish publishes f's model and returns what the publish cost.
func publish(t *testing.T, f *Framework) sealCost {
	t.Helper()
	return measureSeals(t, f, func() error { _, err := f.Publish(); return err })
}

// latestHash restores f's latest published version into a fresh
// network and returns its iteration and parameter hash.
func latestHash(t *testing.T, f *Framework) (int, uint64) {
	t.Helper()
	net := sweepNet(t, 1, 99, 0)
	iter, err := restoreLatest(f, darknet.FP32, net)
	if err != nil {
		t.Fatalf("restore latest: %v", err)
	}
	return iter, paramHash(net)
}

// TestPublishByReferenceSealsNothing: right after MirrorSave, and right
// after MirrorRestore, Publish seals nothing, stores no payload and
// runs one transaction (four fences), and the version restores the
// mirrored parameters bit for bit.
func TestPublishByReferenceSealsNothing(t *testing.T) {
	f := newFramework(t, smallConfig())
	f.Net.Iteration = 3
	save := measureSeals(t, f, func() error { _, err := f.MirrorSave(); return err })
	if save.sealOps == 0 || save.sealedBytes == 0 {
		t.Fatalf("MirrorSave sealed %v ops, %v bytes", save.sealOps, save.sealedBytes)
	}
	want := paramHash(f.Net)
	if got := publish(t, f); got != (sealCost{fences: 4}) {
		t.Fatalf("Publish after MirrorSave cost %+v, want no seal and one transaction", got)
	}
	perturbParams(f.Net, 1) // not saved: the restore below overwrites it
	if _, err := f.MirrorRestore(); err != nil {
		t.Fatalf("MirrorRestore: %v", err)
	}
	if got := publish(t, f); got != (sealCost{fences: 4}) {
		t.Fatalf("Publish after MirrorRestore cost %+v, want no seal and one transaction", got)
	}
	if iter, hash := latestHash(t, f); iter != 3 || hash != want {
		t.Fatalf("version 2 restores iteration %d, equal parameters %v", iter, hash == want)
	}
}

// TestPublishUnmirroredCostsOneSave: after a training step the mirror
// skipped (MirrorFreq 2, odd iteration), Publish seals exactly what a
// save seals, and the version restores the enclave's parameters bit for
// bit.
func TestPublishUnmirroredCostsOneSave(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorFreq = 2
	f := loadedFramework(t, cfg)
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	got := publish(t, f)
	save := measureSeals(t, f, func() error { _, err := f.MirrorSave(); return err })
	if got != save {
		t.Fatalf("Publish after an unmirrored step cost %+v, a save %+v", got, save)
	}
	if iter, hash := latestHash(t, f); iter != 3 || hash != paramHash(f.Net) {
		t.Fatalf("the version restores iteration %d, equal parameters %v", iter, hash == paramHash(f.Net))
	}
}

// TestPublishWithMirroringOffRootsNoMirror: with MirrorFreq < 0 a
// publish writes a frame only the version names, so a crash recovers no
// training mirror, and the version survives it.
func TestPublishWithMirroringOffRootsNoMirror(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorFreq = -1
	f := newFramework(t, cfg)
	want := paramHash(f.Net)
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if mirror.Exists(f.Rom) {
		t.Fatal("a publish with mirroring off rooted a training mirror")
	}
	if _, hash := latestHash(t, f); hash != want {
		t.Fatal("the version restores other parameters after the crash")
	}
}

// TestPinSurvivesFrameworkCrash: a replica's pin on a version that is
// no longer the latest outlives a crash of the training enclave, so the
// saves after recovery leave its frame alone and it still restores.
func TestPinSurvivesFrameworkCrash(t *testing.T) {
	f := loadedFramework(t, smallConfig())
	if err := f.Train(context.Background(), StopAt(2)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	want := paramHash(f.Net)
	pin, err := f.PinPublished()
	if err != nil {
		t.Fatalf("PinPublished: %v", err)
	}
	defer pin.Release()
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(6)); err != nil {
		t.Fatalf("Train after recovery: %v", err)
	}
	m, err := pin.Open(f.Engine, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	net := sweepNet(t, 1, 99, 0)
	if iter, err := m.MirrorIn(net); err != nil || iter != 2 || paramHash(net) != want {
		t.Fatalf("the pinned version after recovery and three saves restores iteration %d, err %v", iter, err)
	}
}
