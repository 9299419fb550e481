package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/mnist"
)

// smallConfig returns a fast-to-train framework config for tests.
func smallConfig() Config {
	return Config{
		ModelConfig: darknet.MNISTConfig(1, 4, 16),
		PMBytes:     16 << 20,
		Seed:        1,
	}
}

func newFramework(t *testing.T, cfg Config) *Framework {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestNewProvisionsKeyViaAttestation(t *testing.T) {
	f := newFramework(t, smallConfig())
	if len(f.Key()) != engine.KeySize {
		t.Fatalf("provisioned key has %d bytes", len(f.Key()))
	}
	// Attestation ran at least one ecall.
	if f.Enclave.Stats().Ecalls == 0 {
		t.Fatal("no ecalls recorded during setup")
	}
}

func TestNewAcceptsExplicitKey(t *testing.T) {
	cfg := smallConfig()
	cfg.DataKey = []byte("0123456789abcdef")
	f := newFramework(t, cfg)
	if string(f.Key()) != "0123456789abcdef" {
		t.Fatal("explicit key not used")
	}
	cfg.DataKey = []byte("short")
	if _, err := New(cfg); err == nil {
		t.Fatal("bad key length accepted")
	}
}

func TestNewRequiresModelConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestTrainRequiresDataset(t *testing.T) {
	f := newFramework(t, smallConfig())
	if err := f.Train(context.Background(), StopAt(1)); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("Train without data = %v, want ErrNoDataset", err)
	}
}

func TestTrainReducesLossOnSyntheticMNIST(t *testing.T) {
	f := newFramework(t, smallConfig())
	ds := mnist.Synthetic(200, 2)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	var first, last float32
	err := f.Train(context.Background(), StopAt(30), WithProgress(func(iter int, loss float32) {
		if iter == 1 {
			first = loss
		}
		last = loss
	}))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if f.Iteration() != 30 {
		t.Fatalf("Iteration = %d, want 30", f.Iteration())
	}
	if last >= first {
		t.Fatalf("loss not decreasing: first=%.4f last=%.4f", first, last)
	}
}

func TestCrashRecoveryResumesWhereItLeftOff(t *testing.T) {
	// The Fig. 9(a) property: training continues from the mirrored
	// iteration, not from scratch.
	f := newFramework(t, smallConfig())
	ds := mnist.Synthetic(200, 3)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	var lossBefore float32
	if err := f.Train(context.Background(), StopAt(20), WithProgress(func(_ int, l float32) { lossBefore = l })); err != nil {
		t.Fatalf("Train: %v", err)
	}

	f.Crash()
	if !f.Crashed() {
		t.Fatal("Crashed = false after Crash")
	}
	if err := f.Train(context.Background(), StopAt(25)); !errors.Is(err, ErrCrashedDown) {
		t.Fatalf("Train while crashed = %v, want ErrCrashedDown", err)
	}
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != 20 {
		t.Fatalf("iteration after recovery = %d, want 20", got)
	}
	// The rebuilt model holds its parameters once until it trains.
	for li, l := range f.Net.Layers {
		for bi, g := range l.Grads() {
			if g != nil {
				t.Fatalf("recovered layer %d (%s) holds gradient slot %d before training", li, l.Kind(), bi)
			}
		}
	}
	var lossAfter float32
	if err := f.Train(context.Background(), StopAt(21), WithProgress(func(_ int, l float32) { lossAfter = l })); err != nil {
		t.Fatalf("Train after recovery: %v", err)
	}
	// The first post-recovery loss continues the curve: it must be far
	// below the ~2.3 random-weights starting loss.
	if lossAfter > lossBefore*2+0.5 {
		t.Fatalf("loss jumped after recovery: before=%.4f after=%.4f", lossBefore, lossAfter)
	}
}

// TestParsedModelHoldsParametersOnce: building the 64 MiB size-sweep
// model, as Recover and every serving enclave do, allocates its
// parameters and little else: no gradient or velocity copies. Other
// goroutines only add to the process-wide count, so the least of three
// builds is the build's own.
func TestParsedModelHoldsParametersOnce(t *testing.T) {
	text, err := SyntheticModelConfig(64 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	var least uint64
	var params int
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net, err := darknet.ParseConfig(strings.NewReader(text), nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("ParseConfig: %v", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; try == 0 || got < least {
			least = got
		}
		params = net.ParamBytes()
	}
	if limit := uint64(params + params/100); least > limit {
		t.Fatalf("building a %d-byte model allocated %d bytes, want at most %d", params, least, limit)
	}
}

func TestNonResilientRestartsFromScratch(t *testing.T) {
	// The Fig. 9(b) baseline: without mirroring, a crash loses all
	// learned parameters and the iteration counter.
	cfg := smallConfig()
	cfg.MirrorFreq = -1
	f := newFramework(t, cfg)
	ds := mnist.Synthetic(200, 4)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(20)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != 0 {
		t.Fatalf("non-resilient iteration after crash = %d, want 0", got)
	}
}

func TestRecoverOnLiveFrameworkFails(t *testing.T) {
	f := newFramework(t, smallConfig())
	if err := f.Recover(true); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Recover live = %v, want ErrNotCrashed", err)
	}
}

func TestDatasetSurvivesCrash(t *testing.T) {
	f := newFramework(t, smallConfig())
	ds := mnist.Synthetic(100, 5)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(5)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if f.Data == nil {
		t.Fatal("training data not re-attached after crash")
	}
	if f.Data.N() != 100 {
		t.Fatalf("data rows = %d, want 100", f.Data.N())
	}
	// Training continues without re-loading the dataset.
	if err := f.Train(context.Background(), StopAt(7)); err != nil {
		t.Fatalf("Train after recovery: %v", err)
	}
}

func TestMirrorFrequency(t *testing.T) {
	cfg := smallConfig()
	cfg.MirrorFreq = 5
	f := newFramework(t, cfg)
	ds := mnist.Synthetic(100, 6)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(7)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Iterations 5 was mirrored; 6,7 were not. After a crash the model
	// resumes from iteration 5.
	f.Crash()
	if err := f.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := f.Iteration(); got != 5 {
		t.Fatalf("iteration after crash with freq=5: %d, want 5", got)
	}
}

func TestInferAccuracyOnTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := smallConfig()
	cfg.ModelConfig = darknet.MNISTConfig(2, 8, 32)
	f := newFramework(t, cfg)
	full := mnist.Synthetic(600, 7)
	train, test, err := full.Split(500)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := f.LoadDataset(train); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(60)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	acc, err := f.Infer(test)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy %.3f below 0.9 on synthetic digits", acc)
	}
}

func TestCheckpointTimingsPMFasterThanSSD(t *testing.T) {
	// The Fig. 7 headline: mirroring beats SSD checkpointing for both
	// saves and restores. Compared on the modeled device parts only:
	// Encrypt and Decrypt are wall-clock AES on both sides, so a Total
	// comparison would depend on scheduler noise.
	cfgText, err := SyntheticModelConfig(4 << 20)
	if err != nil {
		t.Fatalf("SyntheticModelConfig: %v", err)
	}
	cfg := Config{ModelConfig: cfgText, PMBytes: 64 << 20, Seed: 8}
	f := newFramework(t, cfg)

	save, err := f.MirrorSave()
	if err != nil {
		t.Fatalf("MirrorSave: %v", err)
	}
	restore, err := f.MirrorRestore()
	if err != nil {
		t.Fatalf("MirrorRestore: %v", err)
	}
	ssdSave, err := f.SSDSave("ckpt")
	if err != nil {
		t.Fatalf("SSDSave: %v", err)
	}
	ssdRestore, err := f.SSDRestore("ckpt")
	if err != nil {
		t.Fatalf("SSDRestore: %v", err)
	}
	if save.Write >= ssdSave.Write {
		t.Fatalf("mirror save write %v not faster than SSD save write %v", save.Write, ssdSave.Write)
	}
	if restore.Read >= ssdRestore.Read {
		t.Fatalf("mirror restore read %v not faster than SSD restore read %v", restore.Read, ssdRestore.Read)
	}
	// Breakdown sanity: saves split into encrypt+write, restores into
	// read+decrypt.
	if save.Encrypt <= 0 || save.Write <= 0 || save.Read != 0 || save.Decrypt != 0 {
		t.Fatalf("save breakdown malformed: %+v", save)
	}
	if restore.Read <= 0 || restore.Decrypt <= 0 || restore.Encrypt != 0 || restore.Write != 0 {
		t.Fatalf("restore breakdown malformed: %+v", restore)
	}
}

func TestSSDRestoreIntoFreshModelMatches(t *testing.T) {
	cfg := smallConfig()
	f := newFramework(t, cfg)
	ds := mnist.Synthetic(100, 9)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if err := f.Train(context.Background(), StopAt(5)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := f.SSDSave("ckpt"); err != nil {
		t.Fatalf("SSDSave: %v", err)
	}
	trained := f.Net.Layers[0].Params()[0][3]

	// Perturb, restore, compare.
	f.Net.Layers[0].Params()[0][3] = 12345
	if _, err := f.SSDRestore("ckpt"); err != nil {
		t.Fatalf("SSDRestore: %v", err)
	}
	if got := f.Net.Layers[0].Params()[0][3]; got != trained {
		t.Fatalf("restored weight %f, want %f", got, trained)
	}
	if f.Iteration() != 5 {
		t.Fatalf("restored iteration = %d, want 5", f.Iteration())
	}
}

func TestSyntheticModelConfigSizes(t *testing.T) {
	for _, mb := range []int{2, 4, 8} {
		target := mb << 20
		cfgText, err := SyntheticModelConfig(target)
		if err != nil {
			t.Fatalf("SyntheticModelConfig(%d): %v", target, err)
		}
		cfg := Config{ModelConfig: cfgText, PMBytes: 8 << 20, Seed: 1}
		// Only parse, don't run: check the parameter footprint.
		f, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		got := f.Net.ParamBytes()
		if got < target*3/4 || got > target*5/4 {
			t.Fatalf("target %d bytes, built %d", target, got)
		}
	}
	if _, err := SyntheticModelConfig(100); err == nil {
		t.Fatal("tiny target accepted")
	}
}

func TestSpotTrainerProtocol(t *testing.T) {
	f := newFramework(t, smallConfig())
	ds := mnist.Synthetic(100, 10)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	tr := &SpotTrainer{F: f}
	if err := tr.Resume(); err != nil { // initial launch: no-op
		t.Fatalf("initial Resume: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if f.Iteration() != 3 {
		t.Fatalf("iteration = %d, want 3", f.Iteration())
	}
	tr.Kill()
	if err := tr.Resume(); err != nil {
		t.Fatalf("Resume after kill: %v", err)
	}
	if f.Iteration() != 3 {
		t.Fatalf("iteration after resume = %d, want 3", f.Iteration())
	}
	if _, err := tr.Step(); err != nil {
		t.Fatalf("Step after resume: %v", err)
	}
	if f.Iteration() != 4 {
		t.Fatalf("iteration = %d, want 4", f.Iteration())
	}
}

func TestPlaintextDataMode(t *testing.T) {
	cfg := smallConfig()
	cfg.PlaintextData = true
	f := newFramework(t, cfg)
	ds := mnist.Synthetic(100, 11)
	if err := f.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if f.Data.Encrypted() {
		t.Fatal("plaintext mode loaded encrypted data")
	}
	if err := f.Train(context.Background(), StopAt(3)); err != nil {
		t.Fatalf("Train: %v", err)
	}
}
