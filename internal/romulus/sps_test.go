package romulus

import (
	"testing"

	"plinius/internal/pm"
)

func runSPSPoint(t *testing.T, env Env, kind pm.FlushKind, swaps int) SPSResult {
	t.Helper()
	dev, err := pm.New(32 << 20)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	r, err := Open(dev, WithEnv(env), WithFlushKind(kind))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res, err := RunSPS(r, SPSConfig{
		ArrayBytes:   1 << 20,
		SwapsPerTx:   swaps,
		Transactions: 20,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("RunSPS: %v", err)
	}
	return res
}

func TestSPSRejectsInvalidConfig(t *testing.T) {
	_, r := newHeap(t, 1<<20)
	if _, err := RunSPS(r, SPSConfig{ArrayBytes: 8, SwapsPerTx: 1, Transactions: 1}); err == nil {
		t.Fatal("tiny array accepted")
	}
	if _, err := RunSPS(r, SPSConfig{ArrayBytes: 1024, SwapsPerTx: 0, Transactions: 1}); err == nil {
		t.Fatal("zero swaps accepted")
	}
}

func TestSPSDeterministicUnderSeed(t *testing.T) {
	a := runSPSPoint(t, NativeEnv(), pm.FlushClflushOpt, 16)
	b := runSPSPoint(t, NativeEnv(), pm.FlushClflushOpt, 16)
	if a.ElapsedSimNs != b.ElapsedSimNs {
		t.Fatalf("same seed, different modeled time: %d vs %d", a.ElapsedSimNs, b.ElapsedSimNs)
	}
}

func TestSPSNativeFasterThanSGX(t *testing.T) {
	// Paper: SGX-Romulus fences take 1.6x-3.7x longer than native.
	for _, swaps := range []int{2, 64, 1024} {
		native := runSPSPoint(t, NativeEnv(), pm.FlushClflushOpt, swaps)
		sgx := runSPSPoint(t, SGXEnv(), pm.FlushClflushOpt, swaps)
		if native.SwapsPerUs <= sgx.SwapsPerUs {
			t.Fatalf("swaps=%d: native %.3f <= sgx %.3f swaps/us", swaps, native.SwapsPerUs, sgx.SwapsPerUs)
		}
		ratio := native.SwapsPerUs / sgx.SwapsPerUs
		if ratio < 1.1 || ratio > 5 {
			t.Fatalf("swaps=%d: native/sgx ratio %.2f outside plausible band", swaps, ratio)
		}
	}
}

func TestSPSSconeCrossover(t *testing.T) {
	// Paper Fig. 6 shape: SCONE beats SGX-Romulus for small
	// transactions (2-64 swaps/tx) but collapses beyond 64 swaps/tx,
	// where SGX-Romulus becomes 1.6x-6.9x faster.
	small := 16
	sgxSmall := runSPSPoint(t, SGXEnv(), pm.FlushClflushOpt, small)
	sconeSmall := runSPSPoint(t, SconeEnv(), pm.FlushClflushOpt, small)
	if sconeSmall.SwapsPerUs <= sgxSmall.SwapsPerUs {
		t.Fatalf("small tx: scone %.3f <= sgx %.3f swaps/us",
			sconeSmall.SwapsPerUs, sgxSmall.SwapsPerUs)
	}

	large := 1024
	sgxLarge := runSPSPoint(t, SGXEnv(), pm.FlushClflushOpt, large)
	sconeLarge := runSPSPoint(t, SconeEnv(), pm.FlushClflushOpt, large)
	if sgxLarge.SwapsPerUs <= sconeLarge.SwapsPerUs {
		t.Fatalf("large tx: sgx %.3f <= scone %.3f swaps/us",
			sgxLarge.SwapsPerUs, sconeLarge.SwapsPerUs)
	}
	ratio := sgxLarge.SwapsPerUs / sconeLarge.SwapsPerUs
	if ratio < 1.2 || ratio > 10 {
		t.Fatalf("large tx sgx/scone ratio %.2f outside the paper's 1.6-6.9 neighbourhood", ratio)
	}
}

func TestSPSClflushSlowerThanClflushopt(t *testing.T) {
	opt := runSPSPoint(t, NativeEnv(), pm.FlushClflushOpt, 64)
	flush := runSPSPoint(t, NativeEnv(), pm.FlushClflush, 64)
	if flush.SwapsPerUs >= opt.SwapsPerUs {
		t.Fatalf("clflush %.3f >= clflushopt %.3f swaps/us", flush.SwapsPerUs, opt.SwapsPerUs)
	}
}

func TestSPSSweepShape(t *testing.T) {
	var res []SPSResult
	for _, swaps := range []int{2, 8, 32} {
		res = append(res, runSPSPoint(t, NativeEnv(), pm.FlushClflushOpt, swaps))
	}
	// Throughput should rise with transaction size: fixed per-tx fences
	// amortise over more swaps.
	if !(res[0].SwapsPerUs < res[1].SwapsPerUs && res[1].SwapsPerUs < res[2].SwapsPerUs) {
		t.Fatalf("throughput not rising with tx size: %.3f %.3f %.3f",
			res[0].SwapsPerUs, res[1].SwapsPerUs, res[2].SwapsPerUs)
	}
}
