package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		samples []float64
		p       float64
		want    float64
	}{
		// ceil(p/100·n)-th smallest, worked by hand.
		{[]float64{35, 20, 15, 50, 40}, 5, 15},  // ceil(0.25) = 1
		{[]float64{35, 20, 15, 50, 40}, 30, 20}, // ceil(1.5) = 2
		{[]float64{35, 20, 15, 50, 40}, 40, 20}, // ceil(2.0) = 2
		{[]float64{35, 20, 15, 50, 40}, 50, 35}, // ceil(2.5) = 3
		{[]float64{35, 20, 15, 50, 40}, 100, 50},
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 25, 7},  // ceil(2.5) = 3
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 50, 8},  // 5th
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 90, 16}, // 9th
		{[]float64{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 91, 20}, // ceil(9.1) = 10
		{[]float64{7}, 90, 7},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.samples...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.samples, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([2.0, 7.5, 1.0], n=4) == [1.0, 2.0, 7.5].
	cases := []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{2, 7.5, 1}, 1, 2, 7.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.values)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestBusyTimeIsTheUnionOfIntervals(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{
		{at(10), at(20)},
		{at(0), at(5)},
		{at(15), at(30)}, // overlaps the first
		{at(40), at(45)},
		{at(41), at(42)}, // inside the previous
	}
	if got, want := busyTime(ivs), 30*time.Millisecond; got != want {
		t.Errorf("busyTime = %v, want %v (5 + 20 + 5)", got, want)
	}
}

func TestParseCPULine(t *testing.T) {
	steal, total, ok := parseCPULine("cpu  1358467 0 121690 1546851 9840 0 16976 50980 7 0\n")
	if !ok || steal != 50980 || total != 1358467+121690+1546851+9840+16976+50980 {
		t.Fatalf("got steal=%d total=%d ok=%v", steal, total, ok)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if _, _, ok := parseCPULine(bad); ok {
			t.Errorf("parseCPULine(%q) accepted", bad)
		}
	}
}
