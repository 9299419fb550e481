package main

import (
	"math"
	"sort"
)

// series is one timing's samples, in the metric's unit.
type series []float64

func (s series) sorted() series {
	out := append(series(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of s by linear interpolation
// between closest ranks; 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	s = s.sorted()
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (s series) median() float64 { return s.quantile(0.5) }

func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// quietSegments splits a time-ordered series into k consecutive
// segments and returns the lower quartile of stat over them. This box
// is a shared one: interference from outside the benchmark comes in
// bursts, seconds long, and only ever adds time, so the segments at the
// lower quartile are the ones it touched least, while a change to the
// program moves every segment.
func (s series) quietSegments(k int, stat func(series) float64) float64 {
	if k > len(s) {
		k = len(s)
	}
	if k <= 1 {
		return stat(s)
	}
	per := make(series, k)
	for i := range per {
		per[i] = stat(s[i*len(s)/k : (i+1)*len(s)/k])
	}
	return per.quantile(0.25)
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the percentile is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// supportedQuantile returns the highest quantile of an n-sample series
// that still has minBeyond samples beyond it, never below the median.
func supportedQuantile(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return float64(n-minBeyond) / float64(n)
}

// supports reports whether an n-sample series has minBeyond samples
// beyond its q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark driver uses to judge spread. It needs at least
// two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := series(values).sorted()
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// unionCoverage returns the share of [start, end) covered by the union
// of the given intervals (which may overlap, as concurrent requests
// do).
func unionCoverage(start, end int64, ivs [][2]int64) float64 {
	if end <= start {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered int64
	cur := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return float64(covered) / float64(end-start)
}
