package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of v, cut
// the way Python's statistics.quantiles(v, n=4) cuts them (exclusive method),
// so a spread computed here equals the one the driver computes. Fewer than
// two samples have no spread: all three are the sample (or 0).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of v, and the
// number of samples strictly beyond that rank. A percentile is only resolved
// when at least minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (value float64, beyond int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as resolved (choosing-metrics guide, section 1).
const minBeyond = 10

// resolved is the p-th percentile of v when at least minBeyond samples lie
// beyond it, and otherwise the highest whole percentile, not below the
// median, that has them; used says which one it is.
func resolved(v []float64, p float64) (value, used float64) {
	for ; p > 50; p-- {
		if value, beyond := percentile(v, p); beyond >= minBeyond {
			return value, p
		}
	}
	value, _ = percentile(v, 50)
	return value, 50
}

// spread is the distance between the quartiles as a share of the median.
func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
