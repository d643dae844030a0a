package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coordsample/internal/sketch"
)

// TestSmallestByHand checks the brute-force bottom-(k+1) on an input worked
// out by hand: k = 2 over ranks a:0.5 b:0.1 c:0.3 d:0.9 e:0.3 keeps
// b (0.1), then the tie at 0.3 broken by key (c before e): r_k = 0.3 and
// r_{k+1} = 0.3.
func TestSmallestByHand(t *testing.T) {
	s := newSmallest(2)
	for _, e := range []refEntry{{"a", 0.5, 1}, {"b", 0.1, 2}, {"c", 0.3, 3}, {"d", 0.9, 4}, {"e", 0.3, 5}} {
		s.offer(e.key, e.rank, e.weight)
	}
	s.trim()
	want := []refEntry{{"b", 0.1, 2}, {"c", 0.3, 3}, {"e", 0.3, 5}}
	if fmt.Sprint(s.es) != fmt.Sprint(want) {
		t.Fatalf("kept %v, want %v", s.es, want)
	}
}

// TestSmallestTrimsLongStreams offers many more entries than the buffer
// holds; the k+1 smallest must survive every trim.
func TestSmallestTrimsLongStreams(t *testing.T) {
	s := newSmallest(3)
	for i := 1000; i >= 1; i-- {
		s.offer(fmt.Sprintf("k%04d", i), float64(i)/1000, float64(i))
	}
	s.trim()
	var got []string
	for _, e := range s.es {
		got = append(got, e.key)
	}
	if strings.Join(got, ",") != "k0001,k0002,k0003,k0004" {
		t.Fatalf("kept %v", got)
	}
}

func TestCompareSketch(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	ranks := []float64{0.5, 0.1, 0.3, 0.9, 0.7}
	weights := []float64{1, 2, 3, 4, 5}
	// By hand, k = 3: b 0.1, c 0.3, a 0.5; r_3 = 0.5, r_4 = 0.7.
	want := []refEntry{{"b", 0.1, 2}, {"c", 0.3, 3}, {"a", 0.5, 1}, {"e", 0.7, 5}}
	whole := sketch.BottomKFromRanks(3, keys, ranks, weights)
	if err := compareSketch(3, want, []*sketch.BottomK{whole}); err != nil {
		t.Fatalf("one sketch: %v", err)
	}
	// Two peers with disjoint keys. Peer 2 keeps e .2, g .25, c .3 and
	// drops d .9, which is then r_4 of the union: only peer 2's own r_4
	// shows it.
	p1 := sketch.BottomKFromRanks(3, []string{"a"}, []float64{0.95}, []float64{1})
	p2 := sketch.BottomKFromRanks(3, []string{"c", "d", "e", "g"}, []float64{0.3, 0.9, 0.2, 0.25}, []float64{3, 4, 5, 6})
	wantUnion := []refEntry{{"e", 0.2, 5}, {"g", 0.25, 6}, {"c", 0.3, 3}, {"d", 0.9, 4}}
	if err := compareSketch(3, wantUnion, []*sketch.BottomK{p1, p2}); err != nil {
		t.Fatalf("two peers: %v", err)
	}
	wrong := append([]refEntry(nil), wantUnion...)
	wrong[3].rank = 0.95
	if err := compareSketch(3, wrong, []*sketch.BottomK{p1, p2}); err == nil {
		t.Error("two peers: a wrong r_{k+1} passed")
	}
	// A wrong weight, a missing key and a wrong r_{k+1} are all caught.
	bad := append([]float64(nil), weights...)
	bad[2] = 3.5
	if err := compareSketch(3, want, []*sketch.BottomK{sketch.BottomKFromRanks(3, keys, ranks, bad)}); err == nil {
		t.Error("a wrong weight passed")
	}
	if err := compareSketch(3, want, []*sketch.BottomK{sketch.BottomKFromRanks(3, keys[1:], ranks[1:], weights[1:])}); err == nil {
		t.Error("a missing key passed")
	}
	far := append([]float64(nil), ranks...)
	far[4] = 0.8
	if err := compareSketch(3, want, []*sketch.BottomK{sketch.BottomKFromRanks(3, keys, far, weights)}); err == nil {
		t.Error("a wrong r_{k+1} passed")
	}
}

// TestExactAggregatesByHand checks the exact aggregates of two keys worked
// out by hand, one inside the predicate and one outside it.
func TestExactAggregatesByHand(t *testing.T) {
	tp := &template{
		bodies: []string{predPrefix + "1.1:1>x#", "10.8.1.1:1>x#"},
		w:      [][numAssign]float64{{3, 0, 5, 1}, {2, 2, 2, 2}},
	}
	sums := templateSums(tp)
	all, pred := sums[0], sums[1]
	if all.sum != [numAssign]float64{5, 2, 7, 3} || all.total != 17 {
		t.Errorf("sums %v total %v", all.sum, all.total)
	}
	// Key 1: min 0 (absent from assignment 1), max 5, L1 5, 2nd largest 3.
	// Key 2: min 2, max 2, L1 0, 2nd largest 2.
	if all.min != 2 || all.max != 7 || all.l1 != 5 || all.lth != 5 {
		t.Errorf("min %v max %v L1 %v lth %v", all.min, all.max, all.l1, all.lth)
	}
	if pred.total != 9 || pred.min != 0 || pred.max != 5 {
		t.Errorf("predicate: total %v min %v max %v", pred.total, pred.min, pred.max)
	}
	rf := &reference{tmpls: []*template{tp}, exact: [][2]aggSums{sums}}
	if got := rf.exactOver(query{agg: "jaccard"}, 0, 1); math.Abs(got-2.0/7) > 1e-15 {
		t.Errorf("jaccard over two rounds = %v, want 2/7", got)
	}
	if got := rf.exactOver(query{agg: "sum", b: 2, pred: true}, 0, 2); got != 15 {
		t.Errorf("sum b=2 with predicate over three rounds = %v, want 15", got)
	}
}

func TestColdShareByHand(t *testing.T) {
	mix := []query{
		{agg: "min", est: "aw"},     // cold: builds min
		{agg: "jaccard", est: "aw"}, // cold: builds max
		{agg: "max", est: "aw"},     // warm
		{agg: "min", est: "discarded"},
	}
	if got := coldShare(mix); got != 0.75 {
		t.Errorf("cold share %v, want 0.75", got)
	}
}
