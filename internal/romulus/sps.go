package romulus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// SPS (swaps per second) is the micro-benchmark the paper uses to
// compare PM libraries (Fig. 6): an integer array lives in PM and each
// transaction randomly swaps SwapsPerTx pairs.

// SPSConfig parameterises one SPS run.
type SPSConfig struct {
	// ArrayBytes is the persistent array size (paper: 10 MB).
	ArrayBytes int
	// SwapsPerTx is the transaction size (paper: 2..2048).
	SwapsPerTx int
	// Transactions is how many transactions to execute.
	Transactions int
	// Seed drives the swap positions deterministically.
	Seed int64
}

// SPSResult is one Fig. 6 data point.
type SPSResult struct {
	Config       SPSConfig
	Swaps        int
	SwapsPerUs   float64
	ElapsedSimNs int64
}

// RunSPS executes the benchmark on an already-opened Romulus heap and
// reports throughput against the device's modeled clock.
func RunSPS(r *Romulus, cfg SPSConfig) (SPSResult, error) {
	if cfg.ArrayBytes < 16 || cfg.SwapsPerTx <= 0 || cfg.Transactions <= 0 {
		return SPSResult{}, errors.New("romulus: invalid SPS config")
	}
	elems := cfg.ArrayBytes / 8
	var arrOff int
	if err := r.Update(func() error {
		off, err := r.Alloc(elems * 8)
		if err != nil {
			return err
		}
		arrOff = off
		// Initialise the array with its indices in bulk.
		buf := make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(i))
		}
		return r.Store(arrOff, buf)
	}); err != nil {
		return SPSResult{}, fmt.Errorf("sps init: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	clk := r.Device().Clock()
	start := clk.Modeled()
	for t := 0; t < cfg.Transactions; t++ {
		if err := r.Update(func() error {
			for s := 0; s < cfg.SwapsPerTx; s++ {
				i := rng.Intn(elems)
				j := rng.Intn(elems)
				a, err := r.LoadUint64(arrOff + 8*i)
				if err != nil {
					return err
				}
				b, err := r.LoadUint64(arrOff + 8*j)
				if err != nil {
					return err
				}
				if err := r.StoreUint64(arrOff+8*i, b); err != nil {
					return err
				}
				if err := r.StoreUint64(arrOff+8*j, a); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return SPSResult{}, fmt.Errorf("sps tx %d: %w", t, err)
		}
	}
	elapsed := clk.Modeled() - start
	swaps := cfg.Transactions * cfg.SwapsPerTx
	us := float64(elapsed.Nanoseconds()) / 1e3
	res := SPSResult{
		Config:       cfg,
		Swaps:        swaps,
		ElapsedSimNs: elapsed.Nanoseconds(),
	}
	if us > 0 {
		res.SwapsPerUs = float64(swaps) / us
	}
	return res, nil
}
