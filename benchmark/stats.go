package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of an ascending sample by nearest
// rank; the caller sorts.
func quantile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is how the bounds in BENCHMARK.json are judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, interpolated and clamped
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
