package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"plinius/internal/core"
	"plinius/internal/engine"
	"plinius/internal/mnist"
	"plinius/internal/pm"
	"plinius/internal/spot"
)

func TestFig2ShapeAndPrint(t *testing.T) {
	res, err := RunFig2([]int{1, 4}, 8)
	if err != nil {
		t.Fatalf("RunFig2: %v", err)
	}
	if len(res.ByDevice) != 3 {
		t.Fatalf("devices = %d, want 3", len(res.ByDevice))
	}
	// Shape: every PM throughput beats the matching SSD throughput.
	ssd := res.ByDevice["ssd-ext4"]
	pmdax := res.ByDevice["pm-ext4-dax"]
	for i := range ssd {
		if pmdax[i].ThroughputGBps <= ssd[i].ThroughputGBps {
			t.Fatalf("point %d: PM %.3f <= SSD %.3f", i,
				pmdax[i].ThroughputGBps, ssd[i].ThroughputGBps)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "ramdisk-tmpfs") {
		t.Fatal("print output missing ramdisk rows")
	}
}

func TestFig6CrossoverShape(t *testing.T) {
	res, err := RunFig6([]int{8, 1024}, 5)
	if err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	get := func(env string, kind pm.FlushKind, swaps int) float64 {
		for _, p := range res.Points {
			if p.Env == env && p.FlushKind == kind && p.SwapsPerTx == swaps {
				return p.SwapsPerUs
			}
		}
		t.Fatalf("missing point %s/%s/%d", env, kind, swaps)
		return 0
	}
	for _, kind := range []pm.FlushKind{pm.FlushClflush, pm.FlushClflushOpt} {
		// Native fastest everywhere.
		if !(get("native", kind, 8) > get("sgx-romulus", kind, 8)) {
			t.Fatalf("%s: native not fastest at 8 swaps", kind)
		}
		// SCONE beats SGX at small tx, loses at large tx.
		if !(get("scone-romulus", kind, 8) > get("sgx-romulus", kind, 8)) {
			t.Fatalf("%s: scone not faster at 8 swaps", kind)
		}
		if !(get("sgx-romulus", kind, 1024) > get("scone-romulus", kind, 1024)) {
			t.Fatalf("%s: sgx not faster at 1024 swaps", kind)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "scone-romulus") {
		t.Fatal("print output missing scone column")
	}
}

func TestFig7BelowEPCShape(t *testing.T) {
	res, err := RunFig7(core.SGXEmlPM(), []int{2, 4}, 1, 1)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BeyondEPC {
			t.Fatalf("%dMB flagged beyond EPC", row.TargetMB)
		}
		// The encrypt/decrypt terms are the same AES work on both
		// paths (same engine, same buffers) and wall-clock-noisy, so
		// the paths are compared on the deterministic device + ocall
		// components — the quantity Fig. 7 is about.
		if row.MirrorSave.Write >= row.SSDSave.Write {
			t.Fatalf("%dMB: mirror write %v >= ssd write %v",
				row.TargetMB, row.MirrorSave.Write, row.SSDSave.Write)
		}
		if row.MirrorRestore.Read >= row.SSDRestore.Read {
			t.Fatalf("%dMB: mirror read %v >= ssd read %v",
				row.TargetMB, row.MirrorRestore.Read, row.SSDRestore.Read)
		}
	}
	// Latency grows with model size.
	if res.Rows[1].MirrorSave.Total() <= res.Rows[0].MirrorSave.Total() {
		t.Fatal("save latency did not grow with model size")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Write(PM)") {
		t.Fatal("print output missing PM write column")
	}
}

func TestFig7BeyondEPCKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("large model sweep")
	}
	res, err := RunFig7(core.SGXEmlPM(), []int{40, 90}, 1, 1)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	below, beyond := res.Rows[0], res.Rows[1]
	if below.BeyondEPC || !beyond.BeyondEPC {
		t.Fatalf("EPC classification wrong: %v %v", below.BeyondEPC, beyond.BeyondEPC)
	}
	// The paging knee: beyond the EPC limit, encryption's share of the
	// mirror-save latency grows (Table Ia: 66.4% -> 92.3%).
	shareBelow := float64(below.MirrorSave.Encrypt) / float64(below.MirrorSave.Total())
	shareBeyond := float64(beyond.MirrorSave.Encrypt) / float64(beyond.MirrorSave.Total())
	if shareBeyond <= shareBelow {
		t.Fatalf("encrypt share did not grow past EPC: %.2f -> %.2f", shareBelow, shareBeyond)
	}
	// Mirroring still wins beyond the limit (Fig. 7 bottom panels).
	if beyond.MirrorSave.Total() >= beyond.SSDSave.Total() {
		t.Fatal("mirror save lost to SSD beyond EPC")
	}
}

func TestTable1FromFig7(t *testing.T) {
	fig7 := Fig7Result{
		Server: "test",
		Rows: []Fig7Row{
			{
				BeyondEPC:     false,
				MirrorSave:    core.StepTiming{Encrypt: 60 * time.Millisecond, Write: 40 * time.Millisecond},
				MirrorRestore: core.StepTiming{Read: 75 * time.Millisecond, Decrypt: 25 * time.Millisecond},
				SSDSave:       core.StepTiming{Encrypt: 60 * time.Millisecond, Write: 200 * time.Millisecond},
				SSDRestore:    core.StepTiming{Read: 150 * time.Millisecond, Decrypt: 25 * time.Millisecond},
			},
			{
				BeyondEPC:     true,
				MirrorSave:    core.StepTiming{Encrypt: 90 * time.Millisecond, Write: 10 * time.Millisecond},
				MirrorRestore: core.StepTiming{Read: 90 * time.Millisecond, Decrypt: 10 * time.Millisecond},
				SSDSave:       core.StepTiming{Encrypt: 90 * time.Millisecond, Write: 80 * time.Millisecond},
				SSDRestore:    core.StepTiming{Read: 180 * time.Millisecond, Decrypt: 10 * time.Millisecond},
			},
		},
	}
	a := ComputeTable1a(fig7)
	if a.EncryptBelow != 60 || a.WriteBelow != 40 {
		t.Fatalf("below save shares: %.1f/%.1f", a.EncryptBelow, a.WriteBelow)
	}
	if a.EncryptBeyond != 90 || a.WriteBeyond != 10 {
		t.Fatalf("beyond save shares: %.1f/%.1f", a.EncryptBeyond, a.WriteBeyond)
	}
	if a.ReadBelow != 75 || a.DecryptBelow != 25 {
		t.Fatalf("below restore shares: %.1f/%.1f", a.ReadBelow, a.DecryptBelow)
	}
	b := ComputeTable1b(fig7)
	if b.WriteBelow != 5 { // 200/40
		t.Fatalf("write speedup below = %.2f, want 5", b.WriteBelow)
	}
	if b.ReadBelow != 2 { // 150/75
		t.Fatalf("read speedup below = %.2f, want 2", b.ReadBelow)
	}
	if b.SaveTotalBelow != 2.6 { // 260/100
		t.Fatalf("save total speedup = %.2f, want 2.6", b.SaveTotalBelow)
	}
	var buf bytes.Buffer
	a.Print(&buf)
	b.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table Ia") || !strings.Contains(out, "Table Ib") {
		t.Fatal("table prints incomplete")
	}
}

func TestFig8EncryptionOverhead(t *testing.T) {
	res, err := RunFig8(Fig8Config{
		BatchSizes:  []int{8, 32},
		ConvLayers:  2,
		Filters:     4,
		Iters:       2,
		DatasetSize: 128,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("RunFig8: %v", err)
	}
	for _, row := range res.Rows {
		// The paper's shape (~1.2x at iteration level) asserted on
		// accounted work, not on a ratio of two ~0.1 ms wall loops: the
		// encrypted and plaintext fetch paths share every step except
		// the AES-GCM open, so the encrypted batch opens exactly its
		// sealed rows and the plaintext batch opens nothing.
		sealedRow := engine.SealedLen(4 * (mnist.Rows*mnist.Cols + mnist.Classes))
		if row.EncryptedOpenedBytes != row.BatchSize*sealedRow {
			t.Fatalf("batch %d: encrypted fetch opened %d AES bytes, want %d", row.BatchSize, row.EncryptedOpenedBytes, row.BatchSize*sealedRow)
		}
		if row.PlainOpenedBytes != 0 {
			t.Fatalf("batch %d: plaintext fetch opened %d AES bytes, want 0", row.BatchSize, row.PlainOpenedBytes)
		}
		if row.Overhead > 3.0 {
			t.Fatalf("batch %d: iteration overhead %.2fx implausibly high (paper: ~1.2x)", row.BatchSize, row.Overhead)
		}
	}
	// Iteration time grows with batch size.
	if res.Rows[1].EncryptedIter <= res.Rows[0].EncryptedIter {
		t.Fatal("iteration time did not grow with batch size")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "fetch ovh") {
		t.Fatal("print output incomplete")
	}
}

func TestFig9CrashResilienceShape(t *testing.T) {
	res, err := RunFig9(Fig9Config{
		Iters:      20,
		Crashes:    2,
		ConvLayers: 1,
		Filters:    4,
		Batch:      16,
		Dataset:    128,
		Seed:       2,
	})
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	if len(res.Baseline) != 20 {
		t.Fatalf("baseline has %d points", len(res.Baseline))
	}
	// Fig. 9(a): the resilient run needs exactly the target iteration
	// count despite crashes — no work is repeated.
	if len(res.Resilient) != 20 {
		t.Fatalf("resilient run executed %d iterations, want 20", len(res.Resilient))
	}
	// Fig. 9(b): the non-resilient run needs strictly more.
	if res.NonResilientTotal <= 20 {
		t.Fatalf("non-resilient total %d not above target", res.NonResilientTotal)
	}
	if len(res.CrashIters) != 2 {
		t.Fatalf("crash points: %v", res.CrashIters)
	}
	// Both learning runs make progress.
	if res.Resilient[len(res.Resilient)-1] >= res.Resilient[0] {
		t.Fatal("resilient run did not learn")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "crash resilient") {
		t.Fatal("print output incomplete")
	}
}

func TestFig10SpotShape(t *testing.T) {
	// Explicit trace: runnable, outbid, runnable, outbid, then
	// runnable to the end — both runs hit two interruptions mid-job.
	prices := []float64{0.05, 0.05, 0.12, 0.05, 0.05, 0.12, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}
	res, err := RunFig10(Fig10Config{
		Trace:            spot.Trace{Prices: prices},
		TargetIters:      12,
		ItersPerInterval: 2,
		ConvLayers:       1,
		Filters:          4,
		Batch:            16,
		Dataset:          128,
		Seed:             3,
	})
	if err != nil {
		t.Fatalf("RunFig10: %v", err)
	}
	if !res.Resilient.Completed {
		t.Fatal("resilient spot run did not complete")
	}
	if res.Resilient.Interruptions == 0 || res.NonResilient.Interruptions == 0 {
		t.Fatalf("runs hit no interruptions: %d/%d",
			res.Resilient.Interruptions, res.NonResilient.Interruptions)
	}
	// The resilient model reaches the target; the non-resilient model
	// only counts iterations since its last restart (Fig. 10c).
	if res.ResilientFinalIter != 12 {
		t.Fatalf("resilient final iteration = %d, want 12", res.ResilientFinalIter)
	}
	if res.NonResilientFinalIter >= res.ResilientFinalIter {
		t.Fatalf("non-resilient final iteration %d >= resilient %d despite interruptions",
			res.NonResilientFinalIter, res.ResilientFinalIter)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "state curve") {
		t.Fatal("print output incomplete")
	}
}

func TestInferenceAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	res, err := RunInference(InferenceConfig{
		ConvLayers: 2,
		Filters:    8,
		Batch:      64,
		Iters:      150,
		Train:      800,
		Test:       200,
		Seed:       4,
	})
	if err != nil {
		t.Fatalf("RunInference: %v", err)
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("accuracy %.3f below 0.95", res.Accuracy)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "accuracy") {
		t.Fatal("print output incomplete")
	}
}

func TestTCBAccounting(t *testing.T) {
	res, err := RunTCB("../..")
	if err != nil {
		t.Fatalf("RunTCB: %v", err)
	}
	if res.TrustedLOC == 0 || res.UntrustedLOC == 0 {
		t.Fatalf("degenerate split: %+v", res)
	}
	frac := res.TrustedFraction()
	if frac < 0.3 || frac > 0.85 {
		t.Fatalf("trusted fraction %.2f outside plausible band", frac)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "trusted (enclave)") {
		t.Fatal("print output incomplete")
	}
}

func TestFreqAblationLostWork(t *testing.T) {
	res, err := RunFreqAblation([]int{1, 5}, 13, 5)
	if err != nil {
		t.Fatalf("RunFreqAblation: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Mirroring every iteration loses none; every 5 loses 13-10=3.
	if res.Rows[0].LostIters != 0 {
		t.Fatalf("freq=1 lost %d iterations", res.Rows[0].LostIters)
	}
	if res.Rows[1].LostIters != 3 {
		t.Fatalf("freq=5 lost %d iterations, want 3", res.Rows[1].LostIters)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "mirror every") {
		t.Fatal("print output incomplete")
	}
}
