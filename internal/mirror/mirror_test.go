package mirror

import (
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"slices"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/mnist"
	"plinius/internal/pm"
	"plinius/internal/romulus"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.New([]byte("0123456789abcdef"), engine.WithRand(rand.Reader))
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return eng
}

func testHeap(t *testing.T, size int) (*pm.Device, *romulus.Romulus) {
	t.Helper()
	dev, err := pm.New(size)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		t.Fatalf("romulus.Open: %v", err)
	}
	return dev, rom
}

func testNet(t *testing.T, seed int64) *darknet.Network {
	t.Helper()
	cfg := darknet.MNISTConfig(2, 4, 8)
	n, err := darknet.ParseConfig(strings.NewReader(cfg), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// netsEqual reports whether two networks of one shape hold the same
// persistent buffers: fp32 parameters, or int8 codes and scales.
func netsEqual(a, b *darknet.Network) bool {
	ba, bb := collectBuffers(a), collectBuffers(b)
	for li := range ba {
		for bi, x := range ba[li] {
			y := bb[li][bi]
			if !slices.Equal(x.f, y.f) || !slices.Equal(x.q, y.q) {
				return false
			}
		}
	}
	return true
}

func TestMirrorOutInRoundTrip(t *testing.T) {
	_, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	net.Iteration = 42

	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}

	// Restore into a differently initialised network.
	other := testNet(t, 99)
	if netsEqual(net, other) {
		t.Fatal("test nets unexpectedly equal before restore")
	}
	iter, err := m.MirrorIn(other)
	if err != nil {
		t.Fatalf("MirrorIn: %v", err)
	}
	if iter != 42 || other.Iteration != 42 {
		t.Fatalf("restored iteration = %d/%d, want 42", iter, other.Iteration)
	}
	if !netsEqual(net, other) {
		t.Fatal("restored parameters differ from mirrored parameters")
	}
}

func TestMirrorSurvivesCrashAndReopen(t *testing.T) {
	dev, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 2)
	net.Iteration = 7

	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}

	dev.Crash()
	rom2, err := romulus.Open(dev)
	if err != nil {
		t.Fatalf("romulus.Open after crash: %v", err)
	}
	if !Exists(rom2) {
		t.Fatal("mirror root lost after crash")
	}
	m2, err := OpenModel(rom2, eng)
	if err != nil {
		t.Fatalf("OpenModel: %v", err)
	}
	restored := testNet(t, 99)
	iter, err := m2.MirrorIn(restored)
	if err != nil {
		t.Fatalf("MirrorIn: %v", err)
	}
	if iter != 7 {
		t.Fatalf("iteration after crash = %d, want 7", iter)
	}
	if !netsEqual(net, restored) {
		t.Fatal("parameters lost across crash")
	}
}

func TestMirrorRejectsArchitectureMismatch(t *testing.T) {
	_, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 4)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	bigger, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(3, 8, 8)),
		mrand.New(mrand.NewSource(5)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := m.MirrorOut(bigger); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("MirrorOut mismatch = %v, want ErrShapeMismatch", err)
	}
	if _, err := m.MirrorIn(bigger); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("MirrorIn mismatch = %v, want ErrShapeMismatch", err)
	}
}

func TestOpenModelWithoutMirror(t *testing.T) {
	_, rom := testHeap(t, 1<<20)
	eng := testEngine(t)
	if Exists(rom) {
		t.Fatal("Exists on empty heap")
	}
	if _, err := OpenModel(rom, eng); !errors.Is(err, ErrNoMirror) {
		t.Fatalf("OpenModel = %v, want ErrNoMirror", err)
	}
}

func TestMirrorInRejectsWrongKey(t *testing.T) {
	_, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 6)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	wrongEng, err := engine.New([]byte("fedcba9876543210"), engine.WithRand(rand.Reader))
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	m2, err := OpenModel(rom, wrongEng)
	if err != nil {
		t.Fatalf("OpenModel: %v", err)
	}
	if _, err := m2.MirrorIn(testNet(t, 99)); !errors.Is(err, engine.ErrAuth) {
		t.Fatalf("wrong-key MirrorIn = %v, want engine.ErrAuth", err)
	}
}

func TestMirrorDetectsPMTampering(t *testing.T) {
	dev, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 7)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	// Adversary with PM access flips a ciphertext byte directly on the
	// device (threat model §III: integrity of the PM replica).
	buf := make([]byte, 1)
	tamperOff := m.layers[0].bufs[0].off + engine.IVSize + 3
	if err := dev.Load(64+tamperOff, buf); err != nil { // 64 = romulus header
		t.Fatalf("Load: %v", err)
	}
	buf[0] ^= 0xFF
	if err := dev.Store(64+tamperOff, buf); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, err := m.MirrorIn(testNet(t, 99)); !errors.Is(err, engine.ErrAuth) {
		t.Fatalf("tampered MirrorIn = %v, want engine.ErrAuth", err)
	}
}

func TestMetadataBytesMatchesPaperAccounting(t *testing.T) {
	// Paper §VI: 28 B per encrypted buffer, 5 buffers per conv layer
	// -> 140 B per layer. A buffer over 1 MiB is sealed as several
	// segments, each carrying its own 28 B.
	cases := []struct {
		name    string
		filters int
		want    int
	}{
		// 2 conv layers + 1 connected, every buffer one segment.
		{"small", 4, 2*5*engine.Overhead + 1*2*engine.Overhead},
		// The paper's 160-filter conv layers (160*160*9 floats =
		// 900 KiB) stay at 140 B/layer; the connected layer's weights
		// (14*14*160*10 floats = 1.2 MiB) are two segments.
		{"160-filters", 160, 2*5*engine.Overhead + (2+1)*engine.Overhead},
	}
	for _, c := range cases {
		_, rom := testHeap(t, 16<<20)
		eng := testEngine(t)
		net, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(2, c.filters, 1)),
			mrand.New(mrand.NewSource(8)))
		if err != nil {
			t.Fatalf("%s: ParseConfig: %v", c.name, err)
		}
		m, err := AllocModel(rom, eng, net)
		if err != nil {
			t.Fatalf("%s: AllocModel: %v", c.name, err)
		}
		if got := m.MetadataBytes(); got != c.want {
			t.Fatalf("%s: MetadataBytes = %d, want %d", c.name, got, c.want)
		}
		if m.NumLayers() != 3 {
			t.Fatalf("%s: NumLayers = %d, want 3", c.name, m.NumLayers())
		}
		if m.SealedBytes() != net.ParamBytes()+c.want {
			t.Fatalf("%s: SealedBytes %d, want plain %d + metadata %d", c.name, m.SealedBytes(), net.ParamBytes(), c.want)
		}
	}
}

func TestIterationPersistsAcrossMirrorOuts(t *testing.T) {
	_, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 9)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	for _, iter := range []int{1, 5, 10} {
		net.Iteration = iter
		if err := m.MirrorOut(net); err != nil {
			t.Fatalf("MirrorOut: %v", err)
		}
		reopened, err := OpenModel(rom, eng)
		if err != nil {
			t.Fatalf("OpenModel: %v", err)
		}
		if got, again := m.Iteration(), reopened.Iteration(); got != iter || again != iter {
			t.Fatalf("Iteration = %d, reopened %d, want %d", got, again, iter)
		}
	}
}

func TestDataMatrixRoundTrip(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(100, 11)
	dm, err := LoadData(rom, eng, ds)
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	if dm.N() != 100 || !dm.Encrypted() {
		t.Fatalf("N=%d encrypted=%v", dm.N(), dm.Encrypted())
	}
	for _, i := range []int{0, 7, 99} {
		img, label, err := dm.Row(i)
		if err != nil {
			t.Fatalf("Row(%d): %v", i, err)
		}
		want := ds.Image(i)
		for p := range want {
			if img[p] != want[p] {
				t.Fatalf("row %d pixel %d: %f vs %f", i, p, img[p], want[p])
			}
		}
		if label[ds.Labels[i]] != 1 {
			t.Fatalf("row %d label mismatch", i)
		}
	}
}

func TestDataMatrixSurvivesCrash(t *testing.T) {
	dev, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(50, 12)
	if _, err := LoadData(rom, eng, ds); err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	dev.Crash()
	rom2, err := romulus.Open(dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !DataExists(rom2) {
		t.Fatal("data root lost")
	}
	dm, err := OpenData(rom2, eng)
	if err != nil {
		t.Fatalf("OpenData: %v", err)
	}
	img, _, err := dm.Row(13)
	if err != nil {
		t.Fatalf("Row: %v", err)
	}
	want := ds.Image(13)
	for p := range want {
		if img[p] != want[p] {
			t.Fatal("row data corrupted across crash")
		}
	}
}

func TestDataMatrixBatch(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(40, 13)
	dm, err := LoadData(rom, eng, ds)
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	rng := mrand.New(mrand.NewSource(14))
	x, y, err := dm.Batch(rng, 8)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(x) != 8*mnist.Rows*mnist.Cols || len(y) != 8*mnist.Classes {
		t.Fatalf("batch shapes: %d %d", len(x), len(y))
	}
	if _, _, err := dm.Batch(rng, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestDataMatrixPlaintextMode(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(20, 15)
	dm, err := LoadData(rom, eng, ds, WithPlaintextRows())
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	if dm.Encrypted() {
		t.Fatal("plaintext mode still encrypted")
	}
	// Plaintext rows are smaller: no IV/MAC per row.
	if dm.StoredBytes() >= 20*engine.SealedLen(4*(mnist.Rows*mnist.Cols+mnist.Classes)) {
		t.Fatal("plaintext rows not smaller than sealed rows")
	}
	img, _, err := dm.Row(3)
	if err != nil {
		t.Fatalf("Row: %v", err)
	}
	want := ds.Image(3)
	for p := range want {
		if img[p] != want[p] {
			t.Fatal("plaintext row mismatch")
		}
	}
}

// TestOpenDataRejectsForgedRowSize: a header whose stored row size is
// not the sealed (or, for plaintext rows, the plain) size of a row is
// corrupt. Rotation re-seals each row in place inside its stored frame,
// so a forged size must never get that far.
func TestOpenDataRejectsForgedRowSize(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	dm, err := LoadData(rom, eng, mnist.Synthetic(10, 16))
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	plain := rowPlainLen()
	for _, forged := range []struct {
		stored, encrypted uint64
	}{
		{uint64(plain), 1},
		{uint64(plain + 5), 1},
		{uint64(engine.SealedLen(plain) + 1), 1},
		{uint64(engine.SealedLen(plain)), 0},
	} {
		err := rom.Update(func() error {
			if err := rom.StoreUint64(dm.headOff+dataHdrStoredRow, forged.stored); err != nil {
				return err
			}
			return rom.StoreUint64(dm.headOff+dataHdrEncrypted, forged.encrypted)
		})
		if err != nil {
			t.Fatalf("forge header: %v", err)
		}
		if _, err := OpenData(rom, eng); !errors.Is(err, ErrDataCorrupt) {
			t.Fatalf("OpenData with %d-byte rows, encrypted %d = %v, want ErrDataCorrupt", forged.stored, forged.encrypted, err)
		}
	}
}

func TestOpenDataWithoutLoad(t *testing.T) {
	_, rom := testHeap(t, 1<<20)
	eng := testEngine(t)
	if DataExists(rom) {
		t.Fatal("DataExists on empty heap")
	}
	if _, err := OpenData(rom, eng); !errors.Is(err, ErrNoData) {
		t.Fatalf("OpenData = %v, want ErrNoData", err)
	}
}

func TestDataRowOutOfRange(t *testing.T) {
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	ds := mnist.Synthetic(10, 16)
	dm, err := LoadData(rom, eng, ds)
	if err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	if _, _, err := dm.Row(10); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, _, err := dm.Row(-1); err == nil {
		t.Fatal("negative row accepted")
	}
}
