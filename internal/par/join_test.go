package par_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"plinius"
	"plinius/internal/par"
)

// joins collects what the join probe reports.
type joins struct {
	mu             sync.Mutex
	late           []time.Duration
	helped, ranges int
}

func (j *joins) record(late time.Duration, helped, ranges int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if late > 0 {
		j.late = append(j.late, late)
	}
	j.helped += helped
	j.ranges += ranges
}

// TestJoinProbeReportsForks: each For that forks reports one join with
// its ranges, and the worker's share of them. Whoever claims range 0
// waits there until the other ranges have run, so the worker runs
// either range 0 or all seven others.
func TestJoinProbeReportsForks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var j joins
	par.SetJoinProbe(j.record)
	defer par.SetJoinProbe(nil)
	const loops = 20
	for i := 0; i < loops; i++ {
		var rest sync.WaitGroup
		rest.Add(7)
		par.For(8, 1, func(lo, hi int) {
			if lo == 0 {
				rest.Wait()
			} else {
				rest.Done()
			}
		})
	}
	if j.ranges != loops*8 || len(j.late) != loops {
		t.Fatalf("probe saw %d ranges and %d joins, want %d and %d", j.ranges, len(j.late), loops*8, loops)
	}
	if j.helped < loops || j.helped > 7*loops {
		t.Fatalf("workers ran %d of %d ranges, want 1 or 7 a loop", j.helped, j.ranges)
	}
}

// BenchmarkServeJoin serves the benchmark's over-EPC MLP (six
// 1024-wide fully connected layers, 23.1 MiB) to two closed-loop
// callers, streamed from PM on one 36 MiB host ("stream") and resident
// on three 10 MiB hosts ("fleet"), and reports how late the pool's
// first worker starts on each For that forks: the p50 and mean in µs,
// and the share of ranges workers ran. Run it with
//
//	go test -run=NONE -bench ServeJoin -benchtime 2000x ./internal/par
func BenchmarkServeJoin(b *testing.B) {
	var cfg strings.Builder
	cfg.WriteString("[net]\nbatch=8\nlearning_rate=0.1\nchannels=1\nheight=28\nwidth=28\n\n")
	for i := 0; i < 6; i++ {
		cfg.WriteString("[connected]\noutput=1024\nactivation=leaky\n\n")
	}
	cfg.WriteString("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n")
	profile := plinius.SGXEmlPM()
	host := plinius.NewHost(profile, plinius.WithHostEPC(36<<20))
	f, err := plinius.New(plinius.Config{ModelConfig: cfg.String(), Host: host, Seed: 1, TrainOverheadBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Publish(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	images := make([][]float32, 64)
	for i := range images {
		images[i] = make([]float32, 784)
		for k := range images[i] {
			images[i][k] = rng.Float32()
		}
	}
	for _, phase := range []string{"stream", "fleet"} {
		b.Run(phase, func(b *testing.B) {
			opts := plinius.ServerOptions{MaxBatch: 8, ShardOverheadBytes: 64 << 10, Seed: 1, Shards: plinius.ShardAuto}
			if phase == "fleet" {
				opts.Shards = 0
				for i := 0; i < 3; i++ {
					opts.Fleet = append(opts.Fleet, plinius.NewHost(profile, plinius.WithHostEPC(10<<20)))
				}
			}
			srv, err := plinius.Serve(context.Background(), f, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var j joins
			par.SetJoinProbe(j.record)
			defer par.SetJoinProbe(nil)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += 2 {
						if _, err := srv.Classify(context.Background(), images[i%len(images)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			par.SetJoinProbe(nil)
			if len(j.late) == 0 {
				b.Logf("%s: no worker joined a For (GOMAXPROCS %d)", phase, runtime.GOMAXPROCS(0))
				return
			}
			slices.Sort(j.late)
			var sum time.Duration
			for _, d := range j.late {
				sum += d
			}
			b.ReportMetric(float64(j.late[len(j.late)/2].Microseconds()), "join-p50-µs")
			b.ReportMetric(float64(sum.Microseconds())/float64(len(j.late)), "join-mean-µs")
			b.ReportMetric(float64(j.helped)/float64(j.ranges), "worker-share")
			b.Log(fmt.Sprintf("%s: %d forks joined", phase, len(j.late)))
		})
	}
}
