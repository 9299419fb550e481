// Secure inference serving: the paper's §VI classification experiment
// as a request-level service, on the v2 context-first API.
//
// A CNN is trained inside the enclave and published to persistent
// memory as an immutable, versioned snapshot; a pool of enclave worker
// replicas restores it through the attestation + mirror-in path.
// Concurrent client requests are coalesced into dynamic micro-batches
// — one network forward per batch — so throughput scales while every
// image and every parameter stays inside enclave memory.
//
// The demo then exercises the v2 lifecycle while requests keep
// flowing: training continues concurrently with serving, Refresh rolls
// the pool to the newly published model version with zero downtime,
// and RotateKey re-provisions the data key end to end — new key to
// every replica over fresh attestation channels, PM state re-sealed —
// without dropping a single request.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"plinius"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	f, err := plinius.New(plinius.Config{
		ModelConfig: plinius.MNISTConfig(2, 8, 64),
		Seed:        4,
	})
	if err != nil {
		return err
	}

	full := plinius.SyntheticDataset(2000, 4)
	train, test, err := full.Split(1600)
	if err != nil {
		return err
	}
	if err := f.LoadDataset(train); err != nil {
		return err
	}
	fmt.Println("training in the enclave...")
	if err := f.Train(ctx, plinius.StopAt(60)); err != nil {
		return err
	}

	// Serve publishes the trained model as version 1 and builds the
	// replicas: each one is attested, receives the data key over the
	// secure channel, and restores the pinned snapshot.
	srv, err := plinius.Serve(ctx, f, plinius.ServerOptions{
		Workers:         4,
		MaxBatch:        16,
		MaxQueueLatency: time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("serving model version %d (iteration %d) on %d enclave replicas\n",
		srv.Version(), srv.Iteration(), srv.Workers())

	// 32 concurrent clients classify the held-out set — while, in the
	// middle of the run, training continues, the pool refreshes to the
	// new model, and the data key rotates. No request is dropped.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		correct int
	)
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < test.N; i += 32 {
				pred, err := srv.Classify(ctx, test.Image(i))
				if err != nil {
					log.Println("classify:", err)
					return
				}
				if pred.Class == test.Labels[i] {
					mu.Lock()
					correct++
					mu.Unlock()
				}
			}
		}(c)
	}

	// Lifecycle, concurrent with the clients above: train on, publish
	// the improved model as a new immutable version, roll the pool.
	if err := f.Train(ctx, plinius.StopAt(90)); err != nil {
		return err
	}
	if _, err := f.Publish(); err != nil {
		return err
	}
	iter, err := srv.Refresh(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("zero-downtime refresh: now serving version %d (iteration %d)\n", srv.Version(), iter)
	ver, err := srv.RotateKey(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("key rotated: replicas re-provisioned, PM re-sealed, serving version %d\n", ver)
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("accuracy  : %.1f%% on %d held-out images\n",
		100*float64(correct)/float64(test.N), test.N)
	fmt.Printf("throughput: %.0f req/s in %.1f-image micro-batches (%d batches)\n",
		st.Throughput, st.AvgBatch, st.Batches)
	fmt.Printf("latency   : avg %v, p50 %v, p99 %v, max %v (rejected %d, expired %d)\n",
		st.AvgLatency.Round(time.Microsecond), st.P50Latency.Round(time.Microsecond),
		st.P99Latency.Round(time.Microsecond), st.MaxLatency.Round(time.Microsecond),
		st.Rejected, st.Expired)

	return shardedServing(ctx)
}

// shardedServing demonstrates ShardAuto on a model that is over-EPC
// relative to its host: the training enclave claims almost the whole
// (deliberately small) machine, so a whole-model serving replica would
// push the host far over the paging knee. ShardAuto notices the
// replica does not fit the headroom and pipelines the model across
// shard enclaves instead: hot layer ranges bounded to the headroom,
// parked ranges streamed back from the pinned published snapshot in
// PM — the host never crosses the knee.
func shardedServing(ctx context.Context) error {
	fmt.Println("\n--- sharded serving (ShardAuto) ---")
	prof := plinius.SGXEmlPM()
	// A 21 MB machine whose training enclave claims ~20 MB: under 1 MB
	// of EPC headroom left for serving, far less than one replica.
	host := plinius.NewHost(prof, plinius.WithHostEPC(42<<19))
	f, err := plinius.New(plinius.Config{
		ModelConfig:        plinius.MNISTConfig(2, 8, 64),
		Host:               host,
		TrainOverheadBytes: 20 << 20,
		Seed:               4,
	})
	if err != nil {
		return err
	}
	ds := plinius.SyntheticDataset(600, 4)
	if err := f.LoadDataset(ds); err != nil {
		return err
	}
	if err := f.Train(ctx, plinius.StopAt(60)); err != nil {
		return err
	}
	fmt.Printf("replica footprint %.1f MB vs %.1f MB headroom: a whole replica cannot fit\n",
		float64(f.ReplicaFootprint(8))/(1<<20), float64(host.Headroom())/(1<<20))

	srv, err := plinius.Serve(ctx, f, plinius.ServerOptions{
		Shards:             plinius.ShardAuto,
		ShardOverheadBytes: 64 << 10,
		MaxBatch:           8,
		MaxQueueLatency:    time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("ShardAuto: %d shard enclaves, pipeline window %d, streaming=%v\n",
		srv.Shards(), srv.Workers(), srv.ShardsStreaming())

	correct := 0
	for i := 0; i < 200; i++ {
		pred, err := srv.Classify(ctx, ds.Image(i))
		if err != nil {
			return err
		}
		if pred.Class == ds.Labels[i] {
			correct++
		}
	}
	hs := host.Stats()
	fmt.Printf("served 200 requests, accuracy %.1f%%; host peak %.1f MB of %.1f MB usable, EPC pressure %.2f\n",
		100*float64(correct)/200, float64(hs.PeakResidentBytes)/(1<<20),
		float64(host.UsableEPC())/(1<<20), srv.EPCPressure())
	fmt.Printf("PM range restores instead of page faults: %d restores, %d faults since serving began\n",
		srv.Stats().ShardRestores, hs.PageSwaps)
	return nil
}
