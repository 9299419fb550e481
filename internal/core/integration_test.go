package core

import (
	"context"
	"errors"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
)

// Integration tests exercising the full Fig. 5 workflow and failure
// paths across both server models.

func TestFullWorkflowBothServers(t *testing.T) {
	for _, server := range []ServerProfile{SGXEmlPM(), EmlSGXPM()} {
		t.Run(server.Name, func(t *testing.T) {
			f, err := New(Config{
				ModelConfig: darknet.MNISTConfig(1, 4, 16),
				Server:      server,
				PMBytes:     16 << 20,
				Seed:        50,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := f.LoadDataset(mnist.Synthetic(100, 50)); err != nil {
				t.Fatalf("LoadDataset: %v", err)
			}
			if err := f.Train(context.Background(), StopAt(8)); err != nil {
				t.Fatalf("Train: %v", err)
			}
			f.Crash()
			if err := f.Recover(true); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if f.Iteration() != 8 {
				t.Fatalf("iteration = %d", f.Iteration())
			}
			// Hardware-SGX server pays transition costs; the
			// simulation-mode server does not.
			if server.Enclave.HardwareSGX && f.Enclave.Clock().Modeled() == 0 {
				t.Fatal("hardware SGX charged nothing")
			}
		})
	}
}

func TestSSDCheckpointSurvivesPMCrash(t *testing.T) {
	// The SSD baseline's checkpoint lives on storage, not PM: a PM
	// power failure must not affect it.
	f := newFramework(t, smallConfig())
	if err := f.LoadDataset(mnist.Synthetic(100, 51)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(6)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.SSDSave("ckpt"); err != nil {
		t.Fatalf("SSDSave: %v", err)
	}
	f.Crash()
	if err := f.Recover(false); err != nil { // fresh weights, no mirror-in
		t.Fatalf("Recover: %v", err)
	}
	if _, err := f.SSDRestore("ckpt"); err != nil {
		t.Fatalf("SSDRestore after PM crash: %v", err)
	}
	if f.Iteration() != 6 {
		t.Fatalf("SSD-restored iteration = %d, want 6", f.Iteration())
	}
}

func TestSSDRestoreMissingFile(t *testing.T) {
	f := newFramework(t, smallConfig())
	if _, err := f.SSDRestore("nope"); err == nil {
		t.Fatal("restore of missing checkpoint succeeded")
	}
}

func TestSSDRestoreRejectsGarbage(t *testing.T) {
	f := newFramework(t, smallConfig())
	fh, err := f.SSD.Create("bad")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fh.Write(make([]byte, 64)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := f.SSDRestore("bad"); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestInferValidatesDataset(t *testing.T) {
	f := newFramework(t, smallConfig())
	bad := mnist.Synthetic(10, 52)
	bad.Labels[0] = 99
	if _, err := f.Infer(bad); err == nil {
		t.Fatal("invalid test set accepted")
	}
}

func TestCheckpointOpsFailWhileCrashed(t *testing.T) {
	f := newFramework(t, smallConfig())
	f.Crash()
	if _, err := f.MirrorSave(); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("MirrorSave = %v", err)
	}
	if _, err := f.MirrorRestore(); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("MirrorRestore = %v", err)
	}
	if _, err := f.SSDSave("x"); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("SSDSave = %v", err)
	}
	if _, err := f.SSDRestore("x"); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("SSDRestore = %v", err)
	}
	if _, err := f.Infer(mnist.Synthetic(10, 53)); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("Infer = %v", err)
	}
	if err := f.LoadDataset(mnist.Synthetic(10, 53)); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("LoadDataset = %v", err)
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	f := newFramework(t, smallConfig())
	if err := f.LoadDataset(mnist.Synthetic(100, 54)); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		target := (cycle + 1) * 3
		if err := f.Train(context.Background(), StopAt(target)); err != nil {
			t.Fatalf("cycle %d Train: %v", cycle, err)
		}
		f.Crash()
		if err := f.Recover(true); err != nil {
			t.Fatalf("cycle %d Recover: %v", cycle, err)
		}
		if f.Iteration() != target {
			t.Fatalf("cycle %d: iteration %d, want %d", cycle, f.Iteration(), target)
		}
	}
}

func TestEnclaveFootprintTracksModel(t *testing.T) {
	cfgText, err := SyntheticModelConfig(4 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	f, err := New(Config{ModelConfig: cfgText, PMBytes: 32 << 20, Seed: 55})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	foot := f.Enclave.Footprint()
	if foot < f.Net.ParamBytes() {
		t.Fatalf("footprint %d below model size %d", foot, f.Net.ParamBytes())
	}
	if f.Enclave.OverEPC() {
		t.Fatal("4MB model flagged over EPC")
	}
	// Crash releases the reservation; recover re-reserves.
	f.Crash()
	if f.Enclave.Footprint() >= foot {
		t.Fatal("crash did not release enclave footprint")
	}
	if err := f.Recover(false); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if f.Enclave.Footprint() < f.Net.ParamBytes() {
		t.Fatal("recover did not re-reserve footprint")
	}
}

func TestKeyProvisioningDeterministicPerSeed(t *testing.T) {
	// Different frameworks with attestation-provisioned keys must not
	// share keys (fresh owner entropy each time).
	a := newFramework(t, smallConfig())
	b := newFramework(t, smallConfig())
	ka, kb := a.Key(), b.Key()
	same := true
	for i := range ka {
		if ka[i] != kb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two attestation runs produced the same data key")
	}
}

func TestMirrorRestoreMatchesEPCModel(t *testing.T) {
	// Beyond-EPC configuration still round-trips correctly (paging
	// only affects cost, never correctness).
	cfgText, err := SyntheticModelConfig(2 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	f, err := New(Config{
		ModelConfig:        cfgText,
		PMBytes:            32 << 20,
		Seed:               56,
		TrainOverheadBytes: enclave.UsableEPC, // force over-EPC accounting
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !f.Enclave.OverEPC() {
		t.Fatal("not over EPC despite forced overhead")
	}
	if _, err := f.MirrorSave(); err != nil {
		t.Fatalf("MirrorSave: %v", err)
	}
	want := f.Net.Layers[0].Params()[0][0]
	f.Net.Layers[0].Params()[0][0] = 777
	if _, err := f.MirrorRestore(); err != nil {
		t.Fatalf("MirrorRestore: %v", err)
	}
	if got := f.Net.Layers[0].Params()[0][0]; got != want {
		t.Fatalf("restored %f, want %f", got, want)
	}
	if f.Enclave.Stats().PageSwaps == 0 {
		t.Fatal("no page swaps recorded beyond EPC")
	}
}
