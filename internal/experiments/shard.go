package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// Sharded-serving experiment: the serving-side answer to the Fig. 7
// paging knee. A model larger than the usable EPC is served two ways
// on identical dedicated serving hosts:
//
//   - monolithic: one whole-model replica enclave. Its footprint alone
//     overcommits the host, so the restore all-misses (every sealed
//     buffer decrypt touches paged-out memory) and every staged batch
//     keeps paying faults — the knee, permanently.
//   - sharded: a core.ShardGroup pipeline. Shards hold only a small
//     parked overhead between batches and stream their layer range
//     back from the pinned published snapshot in PM when scheduled, so
//     the host never crosses the knee: the fault storm is traded for
//     sealed PM reads and in-enclave decrypts (the PMRestores column).
//
// The headline is the fault arithmetic: per batch served, the
// monolithic replica pays page faults while the shard group pays
// (near) zero and a few PM range restores instead.

// ShardRow is one serving mode's measurement.
type ShardRow struct {
	// Mode is "monolithic" or "sharded".
	Mode string
	// Shards is the pipeline depth (1 for the monolithic replica);
	// Window is how many batches may be in flight at once.
	Shards, Window int
	// Streaming reports PM-streaming residency (sharded mode only).
	Streaming bool
	// PeakResidentBytes is the serving host's working-set high-water
	// mark; HostOverEPC whether it ever exceeded the usable budget.
	PeakResidentBytes int
	HostOverEPC       bool
	// RestoreFaults is the page-fault cost of bringing the pool up;
	// ServeFaults the faults across the batch run.
	RestoreFaults, ServeFaults uint64
	// PagingTime is the modeled kernel time of all those faults.
	PagingTime time.Duration
	// PMRestores counts layer-range restores from PM (sharded
	// streaming's alternative currency).
	PMRestores uint64
	// Stalls counts batches that paid a full range restore on the
	// compute path; Prefetched counts restores the double-buffering
	// prefetcher overlapped with upstream compute instead.
	Stalls, Prefetched uint64
	// ServeWall is the wall-clock time of the batch run.
	ServeWall time.Duration
	// Batches is the number of micro-batches served.
	Batches int
	// SlowWall is the slowest batch's end-to-end latency, and
	// SlowSpans its per-stage trace (wait/restore/open/compute/seal per
	// shard) — the attribution of where that batch's time went.
	SlowWall  time.Duration
	SlowSpans []obs.SpanRec
}

// ShardResult holds one sharded-serving comparison.
type ShardResult struct {
	Server     string
	ModelBytes int
	// ServeEPC is each serving host's usable-EPC budget.
	ServeEPC int
	Batch    int
	Rows     []ShardRow
}

// RunShard serves a sizeMB-parameter model — sized past the serving
// hosts' usable EPC of epcMB — monolithically and sharded, and
// measures the fault bill of each. epcMB <= 0 uses the paper's 93.5 MB
// budget (pair it with sizeMB ~2x that, e.g. 187, for the headline
// comparison); smaller values scale the whole experiment down.
func RunShard(server core.ServerProfile, sizeMB, epcMB, batches, batch int, seed int64) (ShardResult, error) {
	if sizeMB <= 0 {
		sizeMB = 187 // ~2x the usable EPC
	}
	epcBytes := enclave.UsableEPC
	if epcMB > 0 {
		epcBytes = epcMB << 20
	}
	if batches <= 0 {
		batches = 4
	}
	if batch <= 0 {
		batch = 2
	}
	cfgText, err := core.SyntheticModelConfig(sizeMB << 20)
	if err != nil {
		return ShardResult{}, err
	}
	f, err := core.New(core.Config{
		ModelConfig:        cfgText,
		Server:             server,
		PMBytes:            (sizeMB*5/2 + 48) << 20,
		Seed:               seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return ShardResult{}, err
	}
	res := ShardResult{
		Server:     server.Name,
		ModelBytes: f.Net.ParamBytes(),
		ServeEPC:   epcBytes,
		Batch:      batch,
	}
	images := mnist.Synthetic(batch*batches, seed).Images
	in := f.Net.InputSize()
	pageCost := server.Enclave.PageSwapCost

	// Monolithic: one whole-model replica (a one-range group, resident
	// over the knee) on its own serving host.
	monoHost := enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
	rep, err := f.NewShardGroup(core.ShardOptions{Shards: 1, Host: monoHost, Batch: batch, Seed: seed})
	if err != nil {
		return ShardResult{}, fmt.Errorf("monolithic replica: %w", err)
	}
	mono := ShardRow{Mode: "monolithic", Shards: 1, Window: 1, Batches: batches}
	mono.RestoreFaults = monoHost.Stats().PageSwaps
	start := time.Now()
	for b := 0; b < batches; b++ {
		if _, err := rep.ClassifyBatch(images[b*batch*in : (b+1)*batch*in]); err != nil {
			return ShardResult{}, fmt.Errorf("monolithic batch %d: %w", b, err)
		}
	}
	mono.ServeWall = time.Since(start)
	hs := monoHost.Stats()
	mono.ServeFaults = hs.PageSwaps - mono.RestoreFaults
	mono.PagingTime = time.Duration(hs.PageSwaps) * pageCost
	mono.PeakResidentBytes = hs.PeakResidentBytes
	mono.HostOverEPC = monoHost.OverEPC()
	if err := rep.Close(); err != nil {
		return ShardResult{}, err
	}
	res.Rows = append(res.Rows, mono)

	// Sharded: a pipelined shard group on an identical host — once with
	// double-buffered restores disabled (every parked stage stalls the
	// batch on its restore) and once enabled (restores overlap upstream
	// compute), so the prefetch win is visible in the stall column.
	for _, pf := range []struct {
		mode            string
		disablePrefetch bool
	}{
		{"sharded-nopf", true},
		{"sharded+pf", false},
	} {
		shardHost := enclave.NewHost(server.Enclave, enclave.WithHostEPC(epcBytes))
		g, err := f.NewShardGroup(core.ShardOptions{
			Host:            shardHost,
			Batch:           batch,
			OverheadBytes:   64 << 10,
			Seed:            seed + 100,
			DisablePrefetch: pf.disablePrefetch,
		})
		if err != nil {
			return ShardResult{}, fmt.Errorf("shard group (%s): %w", pf.mode, err)
		}
		shape := g.Report()
		sharded := ShardRow{
			Mode:      pf.mode,
			Shards:    shape.Shards,
			Window:    g.Window(),
			Streaming: shape.Streaming,
			Batches:   batches,
		}
		sharded.RestoreFaults = shardHost.Stats().PageSwaps
		start = time.Now()
		// Keep the pipeline full: up to Window batches in flight, so
		// shard k runs batch i+1 while shard k+1 runs batch i.
		sem := make(chan struct{}, g.Window())
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			batchErr error
		)
		// Each batch carries a request-scoped trace so the slowest one
		// can be attributed stage by stage afterwards.
		for b := 0; b < batches; b++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(b int) {
				defer wg.Done()
				defer func() { <-sem }()
				tr := obs.NewTrace()
				t0 := time.Now()
				_, err := g.ClassifyBatchCtx(obs.ContextWithTrace(context.Background(), tr), images[b*batch*in:(b+1)*batch*in])
				wall := time.Since(t0)
				spans := tr.Spans()
				tr.Finish()
				errMu.Lock()
				if err != nil && batchErr == nil {
					batchErr = fmt.Errorf("%s batch %d: %w", pf.mode, b, err)
				}
				if err == nil && wall > sharded.SlowWall {
					sharded.SlowWall, sharded.SlowSpans = wall, spans
				}
				errMu.Unlock()
			}(b)
		}
		wg.Wait()
		if batchErr != nil {
			return ShardResult{}, batchErr
		}
		sharded.ServeWall = time.Since(start)
		hs = shardHost.Stats()
		sharded.ServeFaults = hs.PageSwaps - sharded.RestoreFaults
		sharded.PagingTime = time.Duration(hs.PageSwaps) * pageCost
		sharded.PeakResidentBytes = hs.PeakResidentBytes
		sharded.HostOverEPC = hs.PeakResidentBytes > epcBytes
		r := g.Report()
		sharded.PMRestores, sharded.Stalls, sharded.Prefetched = r.ShardRestores, r.ShardStalls, r.ShardPrefetched
		if err := g.Close(); err != nil {
			return ShardResult{}, err
		}
		res.Rows = append(res.Rows, sharded)
	}
	return res, nil
}

// Print renders the comparison.
func (r ShardResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Sharded serving — %s: %.0f MB model on %.1f MB serving hosts (batch %d)\n",
		r.Server, mbOf(r.ModelBytes), mbOf(r.ServeEPC), r.Batch)
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\tshards\twindow\tpeak(MB)\trestore-faults\tserve-faults\tpaging(ms)\tPM-restores\tstalls\tprefetched\twall(ms)\tregime")
	for _, row := range r.Rows {
		regime := "fits"
		switch {
		case row.HostOverEPC:
			regime = "over knee"
		case row.Streaming:
			regime = "streams PM"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%s\t%d\t%d\t%d\t%s\t%s\n",
			row.Mode, row.Shards, row.Window, mbOf(row.PeakResidentBytes),
			row.RestoreFaults, row.ServeFaults, ms(row.PagingTime),
			row.PMRestores, row.Stalls, row.Prefetched, ms(row.ServeWall), regime)
	}
	tw.Flush()
	// Slowest-batch attribution: the per-shard stage spans (wait/k,
	// restore/k, open/k, compute/k, seal/k) folded by stage kind, so
	// the restore-vs-compute split of the worst batch is one line.
	for _, row := range r.Rows {
		if len(row.SlowSpans) == 0 {
			continue
		}
		agg := make(map[string]time.Duration)
		var order []string
		for _, sp := range row.SlowSpans {
			kind, _, _ := strings.Cut(sp.Stage, "/")
			if _, ok := agg[kind]; !ok {
				order = append(order, kind)
			}
			agg[kind] += sp.Dur
		}
		sort.SliceStable(order, func(i, j int) bool { return agg[order[i]] > agg[order[j]] })
		parts := make([]string, 0, len(order))
		for _, kind := range order {
			parts = append(parts, fmt.Sprintf("%s %s (%.0f%%)",
				kind, ms(agg[kind]), 100*float64(agg[kind])/float64(row.SlowWall)))
		}
		fmt.Fprintf(w, "slowest %s batch %s: %s\n", row.Mode, ms(row.SlowWall), strings.Join(parts, ", "))
	}
}
