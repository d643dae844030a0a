package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of samples by
// nearest rank: the smallest sample with at least p% of the samples at or
// below it, i.e. sorted[ceil(p/100·n)−1]. It sorts samples in place and
// returns NaN for an empty slice. Nearest rank always returns an observed
// value, so a percentile never falls between the warm and cold modes of a
// bimodal latency distribution.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// quartiles returns the first quartile, the median and the third quartile
// of values by the same exclusive method as Python's
// statistics.quantiles(values, n=4), which is how run-to-run spread is
// judged. Fewer than two values yield that value three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1,
		// j-th cut point at position j*m/4 (1-based), interpolated.
		pos := float64(j*(n+1)) / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		switch {
		case i < 1:
			return v[0]
		case i >= n:
			return v[n-1]
		}
		return v[i-1] + frac*(v[i]-v[i-1])
	}
	return at(1), median(v), at(3)
}

// median returns the median of values (mean of the middle two for an even
// count), without modifying values.
func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// interval is one operation's wall-clock span.
type interval struct{ start, end time.Time }

// busyTime returns the length of the union of the intervals: the wall time
// during which at least one of the operations was in flight. Rates divide
// by it, so gaps in which a phase issued no request (other phases, the
// between-round checks) never dilute a phase's throughput.
func busyTime(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	v := append([]interval(nil), ivs...)
	sort.Slice(v, func(i, j int) bool { return v[i].start.Before(v[j].start) })
	var total time.Duration
	cur := v[0]
	for _, iv := range v[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}
