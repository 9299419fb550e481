package experiments

import (
	"fmt"

	"plinius/internal/pm"
	"plinius/internal/romulus"
)

// fig6 runs the SPS benchmark (paper Fig. 6) on the sgx-emlPM machine
// model (ramdisk PM): native vs SGX-Romulus vs Romulus-in-SCONE, for
// clflush+nop and clflushopt+sfence, at a small and a large
// transaction, 5 transactions each on a 10 MB persistent array.
func fig6() ([]Row, error) {
	type point struct {
		env  string
		kind pm.FlushKind
		size int
	}
	kinds := []pm.FlushKind{pm.FlushClflush, pm.FlushClflushOpt}
	sps := make(map[point]float64)
	for _, kind := range kinds {
		for _, env := range []romulus.Env{romulus.NativeEnv(), romulus.SGXEnv(), romulus.SconeEnv()} {
			for _, sw := range []int{8, 1024} {
				dev, err := pm.New(32<<20, pm.WithProfile(pm.RamdiskProfile()))
				if err != nil {
					return nil, err
				}
				r, err := romulus.Open(dev, romulus.WithEnv(env), romulus.WithFlushKind(kind))
				if err != nil {
					return nil, err
				}
				res, err := romulus.RunSPS(r, romulus.SPSConfig{ArrayBytes: 10 << 20, SwapsPerTx: sw, Transactions: 5, Seed: 42})
				if err != nil {
					return nil, fmt.Errorf("fig6 %s/%s/%d: %w", env.Name, kind, sw, err)
				}
				sps[point{env.Name, kind, sw}] = res.SwapsPerUs
			}
		}
	}
	// faster is the smaller speed-up of env a over env b across the two
	// flush kinds.
	faster := func(a, b string, size int) float64 {
		x := inf
		for _, kind := range kinds {
			x = min(x, sps[point{a, kind, size}]/sps[point{b, kind, size}])
		}
		return x
	}
	return []Row{
		{Figure: "Fig. 6", Quantity: "native ÷ SGX-Romulus swaps/µs at 8 swaps/tx, min over flush kinds", Paper: "> 1", Value: faster("native", "sgx-romulus", 8), Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
		{Figure: "Fig. 6", Quantity: "SCONE ÷ SGX-Romulus at 8 swaps/tx", Paper: "> 1", Value: faster("scone-romulus", "sgx-romulus", 8), Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
		{Figure: "Fig. 6", Quantity: "SGX-Romulus ÷ SCONE at 1024 swaps/tx", Paper: "> 1", Value: faster("sgx-romulus", "scone-romulus", 1024), Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
	}, nil
}
