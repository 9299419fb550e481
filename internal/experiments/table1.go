package experiments

import (
	"time"
)

// table1a is the paper's Table Ia: the share (%) of each mirroring step
// in the save and restore latency, below and beyond the EPC limit.
type table1a struct {
	encryptBelow, writeBelow   float64
	encryptBeyond, writeBeyond float64
	readBelow, decryptBelow    float64
	readBeyond, decryptBeyond  float64
}

// table1b is the paper's Table Ib: mirroring speed-ups over SSD
// checkpointing, each the mean over the sweep's sizes on that side of
// the EPC limit.
type table1b struct {
	writeBelow, saveTotalBelow     float64
	writeBeyond, saveTotalBeyond   float64
	readBelow, restoreTotalBelow   float64
	readBeyond, restoreTotalBeyond float64
}

// splitAtKnee separates a Fig. 7 sweep at the EPC limit.
func splitAtKnee(pts []fig7Point) (below, beyond []fig7Point) {
	for _, p := range pts {
		if p.beyondEPC {
			beyond = append(beyond, p)
		} else {
			below = append(below, p)
		}
	}
	return below, beyond
}

func computeTable1a(pts []fig7Point) table1a {
	var t table1a
	below, beyond := splitAtKnee(pts)
	save := func(p fig7Point) (time.Duration, time.Duration) { return p.mirrorSave.Encrypt, p.mirrorSave.Write }
	restore := func(p fig7Point) (time.Duration, time.Duration) { return p.mirrorRestore.Read, p.mirrorRestore.Decrypt }
	t.encryptBelow, t.writeBelow = shares(below, save)
	t.readBelow, t.decryptBelow = shares(below, restore)
	t.encryptBeyond, t.writeBeyond = shares(beyond, save)
	t.readBeyond, t.decryptBeyond = shares(beyond, restore)
	return t
}

// shares returns the percentage of the summed two steps that each
// step takes across pts.
func shares(pts []fig7Point, steps func(fig7Point) (time.Duration, time.Duration)) (first, second float64) {
	var a, b time.Duration
	for _, p := range pts {
		x, y := steps(p)
		a += x
		b += y
	}
	if a+b == 0 {
		return 0, 0
	}
	return 100 * float64(a) / float64(a+b), 100 * float64(b) / float64(a+b)
}

func computeTable1b(pts []fig7Point) table1b {
	var t table1b
	below, beyond := splitAtKnee(pts)
	write := func(p fig7Point) (time.Duration, time.Duration) { return p.ssdSave.Write, p.mirrorSave.Write }
	save := func(p fig7Point) (time.Duration, time.Duration) { return p.ssdSave.Total(), p.mirrorSave.Total() }
	read := func(p fig7Point) (time.Duration, time.Duration) { return p.ssdRestore.Read, p.mirrorRestore.Read }
	restore := func(p fig7Point) (time.Duration, time.Duration) {
		return p.ssdRestore.Total(), p.mirrorRestore.Total()
	}
	t.writeBelow, t.saveTotalBelow = speedup(below, write), speedup(below, save)
	t.readBelow, t.restoreTotalBelow = speedup(below, read), speedup(below, restore)
	t.writeBeyond, t.saveTotalBeyond = speedup(beyond, write), speedup(beyond, save)
	t.readBeyond, t.restoreTotalBeyond = speedup(beyond, read), speedup(beyond, restore)
	return t
}

// speedup averages ssd/mirror over pts.
func speedup(pts []fig7Point, get func(fig7Point) (ssd, mirror time.Duration)) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		ssd, mir := get(p)
		if mir > 0 {
			sum += float64(ssd) / float64(mir)
		}
	}
	return sum / float64(len(pts))
}

func table1aRows(t table1a) []Row {
	row := func(q, paper string, v float64) Row {
		return Row{Figure: "Table Ia", Quantity: q, Paper: paper, Value: v, Unit: "%", Clock: wallModeled, Lo: -inf, Hi: inf}
	}
	return []Row{
		row("save Encrypt share, below the knee", "66.4", t.encryptBelow),
		row("save Write share, below the knee", "33.6", t.writeBelow),
		row("save Encrypt share, beyond the knee", "92.3", t.encryptBeyond),
		row("save Write share, beyond the knee", "7.7", t.writeBeyond),
		row("restore Read share, below the knee", "—", t.readBelow),
		row("restore Decrypt share, below the knee", "—", t.decryptBelow),
		row("restore Read share, beyond the knee", "—", t.readBeyond),
		row("restore Decrypt share, beyond the knee", "—", t.decryptBeyond),
	}
}

// table1bRows reports Table Ib. The save total past the knee carries
// Fig. 7's "mirroring still wins beyond the limit" band; the modeled
// Write and Read columns are banded per size in the Fig. 7 rows.
func table1bRows(t table1b) []Row {
	row := func(q, paper string, v float64, clock string) Row {
		return Row{Figure: "Table Ib", Quantity: q, Paper: paper, Value: v, Unit: "×", Clock: clock, Lo: -inf, Hi: inf}
	}
	saveBeyond := row("save Total speed-up, beyond the knee", "—", t.saveTotalBeyond, wallModeled)
	saveBeyond.Lo, saveBeyond.Open = 1, true
	return []Row{
		row("save Write speed-up, below the knee", "—", t.writeBelow, modeled),
		row("save Total speed-up, below the knee", "3.2 (headline)", t.saveTotalBelow, wallModeled),
		row("save Write speed-up, beyond the knee", "—", t.writeBeyond, modeled),
		saveBeyond,
		row("restore Read speed-up, below the knee", "—", t.readBelow, modeled),
		row("restore Total speed-up, below the knee", "3.7 (headline)", t.restoreTotalBelow, wallModeled),
		row("restore Read speed-up, beyond the knee", "—", t.readBeyond, modeled),
		row("restore Total speed-up, beyond the knee", "—", t.restoreTotalBeyond, wallModeled),
	}
}
