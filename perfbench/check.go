package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// refEntry is one key of a brute-force bottom-k.
type refEntry struct {
	key          string
	rank, weight float64
}

func refCompare(a, b refEntry) int {
	switch {
	case a.rank < b.rank:
		return -1
	case a.rank > b.rank:
		return 1
	}
	return strings.Compare(a.key, b.key)
}

// smallest keeps the k+1 smallest of a stream of entries by brute force:
// it appends every entry that could still be among them and, when the
// buffer fills, sorts it and truncates. It shares no code with the
// program's builders.
type smallest struct {
	k1    int // k+1
	es    []refEntry
	bound float64 // rank of the (k+1)-th smallest so far; +Inf until k+1 seen
}

func newSmallest(k int) *smallest { return &smallest{k1: k + 1, bound: math.Inf(1)} }

// offer considers one entry; key is copied only when it is kept.
func (s *smallest) offer(key string, r, w float64) {
	if r > s.bound {
		return
	}
	s.es = append(s.es, refEntry{strings.Clone(key), r, w})
	if len(s.es) >= 8*s.k1 {
		s.trim()
	}
}

func (s *smallest) trim() {
	slices.SortFunc(s.es, refCompare)
	if len(s.es) > s.k1 {
		s.es = s.es[:s.k1]
	}
	if len(s.es) == s.k1 {
		s.bound = s.es[s.k1-1].rank
	}
}

// union returns the k+1 smallest of several lists.
func union(k int, lists ...[]refEntry) []refEntry {
	s := newSmallest(k)
	for _, l := range lists {
		s.es = append(s.es, l...)
	}
	s.trim()
	return s.es
}

// reference is the benchmark's own model of what the servers must hold:
// the brute-force bottom-(k+1) of every round's offers per assignment,
// ranked with rank.Assigner.Rank, and the exact aggregates of every
// template, computed from the generated weights.
type reference struct {
	k      int
	asg    rank.Assigner
	tmpls  []*template
	rounds map[int]*[numAssign][]refEntry // per round; kept for window checks
	cum    [numAssign][]refEntry          // every round folded so far
	folded int                            // rounds 0..folded-1 are in cum
	exact  [][2]aggSums                   // per template, [all keys, predicate keys]
}

func newReference(k int, asg rank.Assigner, tmpls []*template) *reference {
	rf := &reference{k: k, asg: asg, tmpls: tmpls, rounds: make(map[int]*[numAssign][]refEntry)}
	for _, tp := range tmpls {
		rf.exact = append(rf.exact, templateSums(tp))
	}
	return rf
}

// rankRound returns round r's per-assignment bottom-(k+1), ranking every
// offer of the round.
func (rf *reference) rankRound(r int) *[numAssign][]refEntry {
	tp := rf.tmpls[r%len(rf.tmpls)]
	tag := roundTag(r)
	var sm [numAssign]*smallest
	for b := range sm {
		sm[b] = newSmallest(rf.k)
	}
	buf := make([]byte, 0, 128)
	for i, body := range tp.bodies {
		buf = append(append(buf[:0], body...), tag...)
		key := unsafe.String(unsafe.SliceData(buf), len(buf))
		for b := 0; b < numAssign; b++ {
			if w := tp.w[i][b]; w != 0 {
				sm[b].offer(key, rf.asg.Rank(key, b, w), w)
			}
		}
	}
	var out [numAssign][]refEntry
	for b := range sm {
		sm[b].trim()
		out[b] = sm[b].es
	}
	return &out
}

// fold ranks rounds folded..upto-1 into the cumulative lists, keeping each
// round's own lists when keep is set (for window checks).
func (rf *reference) fold(upto int, keep bool) {
	for ; rf.folded < upto; rf.folded++ {
		per := rf.rankRound(rf.folded)
		if keep {
			rf.rounds[rf.folded] = per
		}
		for b := range rf.cum {
			rf.cum[b] = union(rf.k, rf.cum[b], per[b])
		}
	}
}

// foldParallel ranks rounds folded..upto-1 on two goroutines (rounds are
// independent) and folds them into the cumulative lists.
func (rf *reference) foldParallel(upto int) {
	var parts [2][numAssign][]refEntry
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for r := rf.folded + g; r < upto; r += 2 {
				per := rf.rankRound(r)
				for b := range per {
					parts[g][b] = union(rf.k, parts[g][b], per[b])
				}
			}
		}(g)
	}
	<-done
	<-done
	for b := range rf.cum {
		rf.cum[b] = union(rf.k, rf.cum[b], parts[0][b], parts[1][b])
	}
	rf.folded = upto
}

// window returns the bottom-(k+1) of epochs lo..hi, where epoch n holds
// round n-1.
func (rf *reference) window(b, lo, hi int) ([]refEntry, error) {
	var lists [][]refEntry
	for e := lo; e <= hi; e++ {
		per, ok := rf.rounds[e-1]
		if !ok {
			return nil, fmt.Errorf("reference has no round for epoch %d", e)
		}
		lists = append(lists, per[b])
	}
	return union(rf.k, lists...), nil
}

// forget drops kept rounds before r.
func (rf *reference) forget(r int) {
	for x := range rf.rounds {
		if x < r {
			delete(rf.rounds, x)
		}
	}
}

// compareSketch checks the exported sketches of several peers (one for a
// single node), merged, against want: the same k smallest entries
// (key, rank and weight, bit for bit), the same r_k and the same r_{k+1}.
// The peers' sketches are merged here by sorting their entries; the
// (k+1)-th smallest of the union also considers every peer's own r_{k+1}.
func compareSketch(k int, want []refEntry, got []*sketch.BottomK) error {
	var all []refEntry
	var ranks []float64
	for _, sk := range got {
		if sk.K() != k {
			return fmt.Errorf("sketch has k=%d, want %d", sk.K(), k)
		}
		for _, e := range sk.Entries() {
			all = append(all, refEntry{e.Key, e.Rank, e.Weight})
			ranks = append(ranks, e.Rank)
		}
		if t := sk.Threshold(); !math.IsInf(t, 1) {
			ranks = append(ranks, t)
		}
	}
	slices.SortFunc(all, refCompare)
	slices.Sort(ranks)
	nWant := min(k, len(want))
	if len(all) < nWant {
		return fmt.Errorf("%d sampled entries, want %d", len(all), nWant)
	}
	for i := 0; i < nWant; i++ {
		if all[i] != want[i] {
			return fmt.Errorf("entry %d is %+v, want %+v", i, all[i], want[i])
		}
	}
	nth := func(list []float64, n int) float64 {
		if len(list) < n {
			return math.Inf(1)
		}
		return list[n-1]
	}
	wantRank := func(n int) float64 {
		if len(want) < n {
			return math.Inf(1)
		}
		return want[n-1].rank
	}
	if g, w := nth(ranks, k), wantRank(k); g != w {
		return fmt.Errorf("r_k is %v, want %v", g, w)
	}
	if g, w := nth(ranks, k+1), wantRank(k+1); g != w {
		return fmt.Errorf("r_{k+1} is %v, want %v", g, w)
	}
	for _, sk := range got {
		if len(got) == 1 && sk.KthRank() != wantRank(k) {
			return fmt.Errorf("sketch reports r_k %v, want %v", sk.KthRank(), wantRank(k))
		}
	}
	return nil
}

// aggSums are the exact aggregates of one set of keys.
type aggSums struct {
	sum                      [numAssign]float64
	total, min, max, l1, lth float64
}

func (a *aggSums) add(o aggSums) {
	for b := range a.sum {
		a.sum[b] += o.sum[b]
	}
	a.total += o.total
	a.min += o.min
	a.max += o.max
	a.l1 += o.l1
	a.lth += o.lth
}

// templateSums computes a template's exact aggregates over all its keys
// and over the keys the predicate selects. An absent weight is 0.
func templateSums(tp *template) [2]aggSums {
	var out [2]aggSums
	for i, body := range tp.bodies {
		w := tp.w[i]
		var s aggSums
		sorted := w
		slices.Sort(sorted[:])
		for b := range w {
			s.sum[b] = w[b]
			s.total += w[b]
		}
		s.min, s.max = sorted[0], sorted[numAssign-1]
		s.l1 = s.max - s.min
		s.lth = sorted[numAssign-lthL]
		out[0].add(s)
		if strings.HasPrefix(body, predPrefix) {
			out[1].add(s)
		}
	}
	return out
}

// exactOver returns the exact answer of q over rounds lo..hi inclusive.
func (rf *reference) exactOver(q query, lo, hi int) float64 {
	var s aggSums
	p := 0
	if q.pred {
		p = 1
	}
	for r := lo; r <= hi; r++ {
		s.add(rf.exact[r%len(rf.tmpls)][p])
	}
	switch q.agg {
	case "sum":
		return s.sum[q.b]
	case "total":
		return s.total
	case "min":
		return s.min
	case "max":
		return s.max
	case "L1":
		return s.l1
	case "lth":
		return s.lth
	case "jaccard":
		if s.max == 0 {
			return 1
		}
		return s.min / s.max
	}
	panic("unknown aggregate " + q.agg)
}

// answer is the part of a /query or /cluster/query response the checks
// read.
type answer struct {
	Estimate  *float64 `json:"estimate"`
	Stderr    *float64 `json:"stderr"`
	Epoch     *int     `json:"epoch"`
	Degraded  bool     `json:"degraded"`
	Coverage  *float64 `json:"coverage"`
	Estimator string   `json:"estimator"`
	Peers     []struct {
		Epoch int `json:"epoch"`
	} `json:"peers"`
}

// checkAnswer checks the properties every answer must have: a finite
// estimate, nonnegative for every aggregate of nonnegative weights and in
// [0,1] for jaccard; a finite nonnegative stderr on every aggregate but
// jaccard; the requested estimator; and, from a cluster, full coverage.
// It returns the epoch the answer was computed at.
func checkAnswer(q query, a *answer, cluster bool) (int, error) {
	if a.Estimate == nil || math.IsNaN(*a.Estimate) || math.IsInf(*a.Estimate, 0) {
		return 0, fmt.Errorf("%s: no finite estimate", q)
	}
	v := *a.Estimate
	if q.agg == "jaccard" {
		if v < 0 || v > 1 {
			return 0, fmt.Errorf("%s: jaccard %v outside [0,1]", q, v)
		}
	} else {
		if v < 0 {
			return 0, fmt.Errorf("%s: negative estimate %v", q, v)
		}
		if a.Stderr == nil || math.IsNaN(*a.Stderr) || math.IsInf(*a.Stderr, 0) || *a.Stderr < 0 {
			return 0, fmt.Errorf("%s: stderr missing or not finite", q)
		}
	}
	if a.Estimator != q.est {
		return 0, fmt.Errorf("%s: answered by estimator %q", q, a.Estimator)
	}
	if !cluster {
		if a.Epoch == nil {
			return 0, fmt.Errorf("%s: no epoch", q)
		}
		return *a.Epoch, nil
	}
	if a.Degraded || a.Coverage == nil || *a.Coverage != 1 {
		return 0, fmt.Errorf("%s: degraded cluster answer", q)
	}
	e := math.MaxInt
	for _, p := range a.Peers {
		e = min(e, p.Epoch)
	}
	return e, nil
}

// stderrMultiple is how many reported standard errors an estimate may sit
// from the exact aggregate. The estimators are unbiased, but with
// heavy-tailed weights and predicate-restricted subpopulations of about
// k/16 sampled keys their errors have heavier tails than a normal's (the
// largest seen over more than ten thousand checked answers was 4.2
// standard errors); 10 keeps an honest answer from failing a run while
// an answer over the wrong epochs, keys or aggregate still fails it.
const stderrMultiple = 10

// checkExact checks an answer against the exact aggregate: within
// stderrMultiple reported standard errors, and exact (to rounding) when the
// reported stderr is 0. jaccard reports no stderr and gets only the
// property check.
func checkExact(q query, a *answer, exact float64) (z float64, err error) {
	if q.agg == "jaccard" {
		return 0, nil
	}
	v, se := *a.Estimate, *a.Stderr
	diff := math.Abs(v - exact)
	tol := 1e-9 * math.Max(1, math.Abs(exact))
	if diff <= tol {
		return 0, nil
	}
	if se == 0 || diff > stderrMultiple*se+tol {
		return diff / se, fmt.Errorf("%s: estimate %v, exact %v, stderr %v (%.1f standard errors)", q, v, exact, se, diff/se)
	}
	return diff / se, nil
}
