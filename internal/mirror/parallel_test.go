package mirror

import (
	mrand "math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/obs"
)

// bigTestNet builds a network whose mirror payload crosses the
// mirrorParallelBytes threshold, forcing the fan-out seal/open path.
func bigTestNet(t *testing.T, seed int64) *darknet.Network {
	t.Helper()
	// 64 hidden units over 28x28 inputs ≈ 200 KB of weights per layer.
	cfg := `[net]
batch=4
channels=1
height=28
width=28

[connected]
output=96
activation=relu

[connected]
output=96
activation=relu

[connected]
output=10
activation=linear

[softmax]
`
	n, err := darknet.ParseConfig(strings.NewReader(cfg), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// withProcs runs the rest of the test at GOMAXPROCS n, so the mirror's
// fan-out runs on several pool workers even on single-core machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// fourMiBTestNet has a 1024x1024 connected layer: one 4 MiB weight
// buffer, which MirrorOut seals as four segments.
func fourMiBTestNet(t *testing.T, seed int64) *darknet.Network {
	t.Helper()
	cfg := "[net]\nbatch=1\nchannels=1\nheight=32\nwidth=32\n\n" +
		"[connected]\noutput=1024\nactivation=relu\n\n" +
		"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n"
	n, err := darknet.ParseConfig(strings.NewReader(cfg), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// TestParallelMirrorRoundTrip drives MirrorOut and the restores at
// GOMAXPROCS 1, 2, 3 and 8, so the fan-out runs on any machine: a model of many one-segment buffers restored whole by
// MirrorIn, and one 4 MiB buffer restored on its own by MirrorInRange.
// Every restore is bit-exact, and each sealed segment costs exactly
// one AES-GCM open — the 4 MiB buffer's four segments are what spread
// its restore across workers.
func TestParallelMirrorRoundTrip(t *testing.T) {
	opens := obs.Default().Counter("engine_open_ops_total", "")
	cases := []struct {
		name  string
		build func(*testing.T, int64) *darknet.Network
		shard *darknet.ShardRange // restored by MirrorInRange; nil = MirrorIn
		opens int
	}{
		{"many-buffers", bigTestNet, nil, 6},
		{"one-4MiB-buffer", fourMiBTestNet, &darknet.ShardRange{From: 0, To: 1}, 4 + 1}, // + its bias buffer
	}
	for _, c := range cases {
		net := c.build(t, 1)
		net.Iteration = 7
		want := net
		if c.shard != nil {
			want, _ = net.Shard(*c.shard)
		}
		if want.ParamBytes() < mirrorParallelBytes {
			t.Fatalf("%s: %d bytes, too small to exercise the parallel path", c.name, want.ParamBytes())
		}
		_, rom := testHeap(t, 32<<20)
		m, err := AllocModel(rom, testEngine(t), net)
		if err != nil {
			t.Fatalf("%s: AllocModel: %v", c.name, err)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			withProcs(t, procs)
			if err := m.MirrorOut(net); err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: MirrorOut: %v", c.name, procs, err)
			}
			other := c.build(t, 99)
			got := other
			before := opens.Value()
			var iter int
			if c.shard != nil {
				if got, err = other.Shard(*c.shard); err != nil {
					t.Fatalf("Shard: %v", err)
				}
				iter, err = m.MirrorInRange(got, other.ParamLayersBefore(c.shard.From))
			} else {
				iter, err = m.MirrorIn(got)
			}
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: restore: %v", c.name, procs, err)
			}
			if n := int(opens.Value() - before); n != c.opens {
				t.Fatalf("%s GOMAXPROCS=%d: %d AES-GCM opens, want %d", c.name, procs, n, c.opens)
			}
			if iter != 7 || !netsEqual(want, got) {
				t.Fatalf("%s GOMAXPROCS=%d: restore mismatch: iter=%d equal=%v", c.name, procs, iter, netsEqual(want, got))
			}
		}
	}
}

// TestParallelMirrorManyBuffers pushes many more sealed buffers than
// there are cores through the fan-out MirrorOut, whose ranges fill
// their segments into PM in whatever order they run, and checks the
// roundtrip.
func TestParallelMirrorManyBuffers(t *testing.T) {
	withProcs(t, 2)
	var cfg strings.Builder
	cfg.WriteString("[net]\nbatch=2\nchannels=1\nheight=32\nwidth=32\n\n")
	for i := 0; i < 12; i++ {
		cfg.WriteString("[connected]\noutput=48\nactivation=relu\n\n")
	}
	cfg.WriteString("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n")
	build := func(seed int64) *darknet.Network {
		n, err := darknet.ParseConfig(strings.NewReader(cfg.String()), mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatalf("ParseConfig: %v", err)
		}
		return n
	}
	net := build(1)
	if tasks := 0; true {
		for _, l := range net.Layers {
			tasks += len(l.Params())
		}
		if tasks <= 8 {
			t.Fatalf("want many more tasks than cores, got %d", tasks)
		}
	}
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	other := build(2)
	if _, err := m.MirrorIn(other); err != nil {
		t.Fatalf("MirrorIn: %v", err)
	}
	if !netsEqual(net, other) {
		t.Fatal("many-buffer parallel roundtrip mismatch")
	}
}

// TestMirrorDurationAccessorsRaceSafe hammers LastSealDuration and
// LastOpenDuration while mirror operations run — the satellite fix for
// the formerly racy plain-field accessors. Run with -race.
func TestMirrorDurationAccessorsRaceSafe(t *testing.T) {
	withProcs(t, 4)
	_, rom := testHeap(t, 16<<20)
	eng := testEngine(t)
	net := bigTestNet(t, 1)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.LastSealDuration()
				_ = m.LastOpenDuration()
			}
		}
	}()
	other := bigTestNet(t, 2)
	for i := 0; i < 5; i++ {
		if err := m.MirrorOut(net); err != nil {
			t.Fatalf("MirrorOut: %v", err)
		}
		if _, err := m.MirrorIn(other); err != nil {
			t.Fatalf("MirrorIn: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if !netsEqual(net, other) {
		t.Fatal("restore mismatch")
	}
}
