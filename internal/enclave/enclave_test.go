package enclave

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"time"
)

func TestTransitionCost(t *testing.T) {
	hw := SGXEmlPMProfile()
	cycles := float64(hw.TransitionCycles)
	want := time.Duration(cycles / hw.CPUGHz) // ns
	if got := hw.TransitionCost(); got != want {
		t.Fatalf("hardware transition cost = %v, want %v", got, want)
	}
	sim := EmlSGXPMProfile()
	if got := sim.TransitionCost(); got != 0 {
		t.Fatalf("simulation-mode transition cost = %v, want 0", got)
	}
}

func TestEcallOcallChargeClock(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	if err := e.Ecall(func() error { return nil }); err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if err := e.Ocall(func() error { return nil }); err != nil {
		t.Fatalf("Ocall: %v", err)
	}
	if got := clk.Modeled(); got != 2*e.Profile().TransitionCost() {
		t.Fatalf("modeled = %v, want 2 transitions", got)
	}
	s := e.Stats()
	if s.Ecalls != 1 || s.Ocalls != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEcallPropagatesError(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	wantErr := errors.New("boom")
	if err := e.Ecall(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Ecall error = %v, want %v", err, wantErr)
	}
}

func TestAllocFreeFootprint(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	buf, err := e.Alloc(1000)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if len(buf) != 1000 {
		t.Fatalf("Alloc returned %d bytes, want 1000", len(buf))
	}
	if got := e.Footprint(); got != 1000 {
		t.Fatalf("Footprint = %d, want 1000", got)
	}
	if err := e.Reserve(DefaultHeap - 999); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("over-limit Reserve = %v, want ErrHeapExhausted", err)
	}
	if err := e.Free(1000); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := e.Footprint(); got != 0 {
		t.Fatalf("Footprint after Free = %d, want 0", got)
	}
	if err := e.Free(1); !errors.Is(err, ErrFreeTooMuch) {
		t.Fatalf("over-Free = %v, want ErrFreeTooMuch", err)
	}
	if _, err := e.Alloc(0); !errors.Is(err, ErrBadAlloc) {
		t.Fatalf("zero Alloc = %v, want ErrBadAlloc", err)
	}
}

func TestTouchFreeBelowEPCLimit(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	if _, err := e.Alloc(10 << 20); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	e.Touch(10 << 20)
	if got := clk.Modeled(); got != 0 {
		t.Fatalf("Touch below EPC charged %v, want 0", got)
	}
	if e.OverEPC() {
		t.Fatal("OverEPC = true at 10 MB")
	}
}

func TestTouchChargesPagingBeyondEPC(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	if _, err := e.Alloc(150 << 20); err != nil { // > 93.5 MB usable
		t.Fatalf("Alloc: %v", err)
	}
	if !e.OverEPC() {
		t.Fatal("OverEPC = false at 150 MB")
	}
	e.Touch(50 << 20)
	if got := clk.Modeled(); got == 0 {
		t.Fatal("Touch beyond EPC charged nothing")
	}
	if s := e.Stats(); s.PageSwaps == 0 {
		t.Fatal("no page swaps recorded")
	}
}

func TestTouchFreeInSimulationMode(t *testing.T) {
	e := NewHost(EmlSGXPMProfile()).NewEnclave(WithSeed(1))
	clk := e.Clock()
	if _, err := e.Alloc(200 << 20); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	e.Touch(100 << 20)
	if got := clk.Modeled(); got != 0 {
		t.Fatalf("simulation-mode Touch charged %v, want 0", got)
	}
}

func TestPeakFootprintTracked(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	if _, err := e.Alloc(5 << 20); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := e.Free(5 << 20); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := e.Stats().PeakBytes; got != 5<<20 {
		t.Fatalf("PeakBytes = %d, want %d", got, 5<<20)
	}
}

func TestReadRandDeterministicWithSeed(t *testing.T) {
	a := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(42))
	b := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(42))
	ba := make([]byte, 16)
	bb := make([]byte, 16)
	a.ReadRand(ba)
	b.ReadRand(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("seeded RNGs disagree")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(7))
	want := []byte("the 128-bit data encryption key")
	blob, err := e.Seal(want)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := e.Unseal(blob)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Unseal = %q, want %q", got, want)
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(7))
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	blob[len(blob)-1] ^= 0xff
	if _, err := e.Unseal(blob); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("tampered Unseal = %v, want ErrSealCorrupt", err)
	}
	if _, err := e.Unseal([]byte("short")); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("short Unseal = %v, want ErrSealCorrupt", err)
	}
}

func TestSealBoundToEnclaveIdentity(t *testing.T) {
	a := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(1))
	b := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(2))
	blob, err := a.Seal([]byte("secret"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := b.Unseal(blob); err == nil {
		t.Fatal("different enclave unsealed the blob")
	}
}

func TestAttestationHandshakeDerivesSameKey(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(9))
	sess, q, err := e.beginAttestation()
	if err != nil {
		t.Fatalf("beginAttestation: %v", err)
	}
	owner, err := newKeyOwner(rand.Reader)
	if err != nil {
		t.Fatalf("newKeyOwner: %v", err)
	}
	ownerKey, err := owner.verifyQuote(q, pliniusMeasurement())
	if err != nil {
		t.Fatalf("verifyQuote: %v", err)
	}
	enclaveKey, err := sess.completeAttestation(owner.publicKey())
	if err != nil {
		t.Fatalf("completeAttestation: %v", err)
	}
	if ownerKey != enclaveKey {
		t.Fatal("owner and enclave derived different channel keys")
	}
}

func TestAttestationRejectsForgedQuote(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(9))
	_, q, err := e.beginAttestation()
	if err != nil {
		t.Fatalf("beginAttestation: %v", err)
	}
	owner, err := newKeyOwner(rand.Reader)
	if err != nil {
		t.Fatalf("newKeyOwner: %v", err)
	}
	forged := q
	forged.mac[0] ^= 1
	if _, err := owner.verifyQuote(forged, pliniusMeasurement()); !errors.Is(err, errQuoteForged) {
		t.Fatalf("forged quote = %v, want errQuoteForged", err)
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(9))
	_, q, err := e.beginAttestation()
	if err != nil {
		t.Fatalf("beginAttestation: %v", err)
	}
	owner, err := newKeyOwner(rand.Reader)
	if err != nil {
		t.Fatalf("newKeyOwner: %v", err)
	}
	var other measurement
	other[0] = 0xAB
	if _, err := owner.verifyQuote(q, other); !errors.Is(err, errWrongEnclave) {
		t.Fatalf("wrong measurement = %v, want errWrongEnclave", err)
	}
}

func TestCompleteAttestationNilSession(t *testing.T) {
	var s *attestationSession
	if _, err := s.completeAttestation(nil); !errors.Is(err, errNoAttestation) {
		t.Fatalf("nil session = %v, want errNoAttestation", err)
	}
}

// TestProvisionKeyDeliversKey: the key an enclave holds after
// ProvisionKey is the owner's, and the unwrap ran in one ecall.
func TestProvisionKeyDeliversKey(t *testing.T) {
	e := NewHost(SGXEmlPMProfile()).NewEnclave(WithSeed(9))
	dataKey := bytes.Repeat([]byte{0x5A}, 16)
	before := e.Stats().Ecalls
	got, err := e.ProvisionKey(dataKey)
	if err != nil {
		t.Fatalf("ProvisionKey: %v", err)
	}
	if !bytes.Equal(got, dataKey) {
		t.Fatal("provisioned key differs from the owner's")
	}
	if n := e.Stats().Ecalls - before; n != 1 {
		t.Fatalf("ProvisionKey made %d ecalls, want 1", n)
	}
}

func TestWrapUnwrapKey(t *testing.T) {
	var channel [32]byte
	if _, err := rand.Read(channel[:]); err != nil {
		t.Fatalf("rand: %v", err)
	}
	dataKey := make([]byte, 16)
	if _, err := rand.Read(dataKey); err != nil {
		t.Fatalf("rand: %v", err)
	}
	wrapped, err := wrapKey(channel, dataKey)
	if err != nil {
		t.Fatalf("wrapKey: %v", err)
	}
	got, err := unwrapKey(channel, wrapped)
	if err != nil {
		t.Fatalf("unwrapKey: %v", err)
	}
	if !bytes.Equal(got, dataKey) {
		t.Fatal("unwrapped key differs")
	}
}

func TestUnwrapKeyWrongChannel(t *testing.T) {
	var a, b [32]byte
	a[0], b[0] = 1, 2
	wrapped, err := wrapKey(a, make([]byte, 16))
	if err != nil {
		t.Fatalf("wrapKey: %v", err)
	}
	if _, err := unwrapKey(b, wrapped); !errors.Is(err, errKeyUnwrap) {
		t.Fatalf("wrong-channel unwrapKey = %v, want errKeyUnwrap", err)
	}
}

func TestUnwrapKeyRejectsTruncated(t *testing.T) {
	var channel [32]byte
	wrapped, err := wrapKey(channel, make([]byte, 16))
	if err != nil {
		t.Fatalf("wrapKey: %v", err)
	}
	for _, n := range []int{0, 4, len(wrapped) - 1} {
		if _, err := unwrapKey(channel, wrapped[:n]); !errors.Is(err, errKeyUnwrap) {
			t.Fatalf("unwrapKey of %d of %d bytes = %v, want errKeyUnwrap", n, len(wrapped), err)
		}
	}
}
