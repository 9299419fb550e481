package experiments

import (
	"fmt"

	"plinius/internal/storage"
)

// fig2 characterises the three device classes (paper Fig. 2): random
// and sequential reads and writes of 4 KB blocks, 512 MB per thread and
// an fsync per written block, at 1-8 threads.
func fig2() ([]Row, error) {
	gbps := make(map[string][]float64)
	for _, prof := range []storage.Profile{storage.SSDProfile(), storage.PMDaxProfile(), storage.RamdiskProfile()} {
		for _, pat := range []storage.FIOPattern{storage.RandomRead, storage.SequentialRead, storage.RandomWrite, storage.SequentialWrite} {
			for _, th := range []int{1, 2, 4, 8} {
				r, err := storage.RunFIO(prof, storage.DefaultFIOConfig(pat, th))
				if err != nil {
					return nil, fmt.Errorf("fig2 %s/%s/%d threads: %w", prof.Name, pat, th, err)
				}
				gbps[prof.Name] = append(gbps[prof.Name], r.ThroughputGBps)
			}
		}
	}
	full := 0
	for _, g := range gbps {
		if len(g) == 16 {
			full++
		}
	}
	pmOverSSD := inf
	for i, ssd := range gbps["ssd-ext4"] {
		pmOverSSD = min(pmOverSSD, gbps["pm-ext4-dax"][i]/ssd)
	}
	return []Row{
		{Figure: "Fig. 2", Quantity: "devices with all 4 patterns × 4 thread counts", Paper: "3", Value: float64(full), Unit: "devices", Clock: count, Lo: 3, Hi: 3},
		{Figure: "Fig. 2", Quantity: "PM-DAX ÷ SSD throughput, min over the grid", Paper: "> 1", Value: pmOverSSD, Unit: "×", Clock: modeled, Lo: 1, Hi: inf, Open: true},
	}, nil
}
