package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
)

// scope is the epoch range a query reads: the cumulative snapshot
// (width 0) or the window of width epochs ending back epochs before the
// current one.
type scope struct{ back, width int }

var cumulative = scope{}

// epochs renders the scope at current epoch e as the ?epochs= value ("" for
// the cumulative snapshot). A window reaching before epoch 1 is clamped.
func (s scope) epochs(e int) string {
	if s.width == 0 {
		return ""
	}
	lo, hi := s.bounds(e)
	return fmt.Sprintf("%d..%d", lo, hi)
}

// bounds returns the window's epochs at current epoch e.
func (s scope) bounds(e int) (lo, hi int) {
	hi = e - s.back
	return max(1, hi-s.width+1), hi
}

func (s scope) String() string {
	if s.width == 0 {
		return "cum"
	}
	return fmt.Sprintf("w%d@-%d", s.width, s.back)
}

// query is one request of a workload's query mix.
type query struct {
	agg  string // sum, total, min, max, L1, lth, jaccard
	est  string // aw or discarded
	b    int    // assignment of sum
	pred bool   // restrict to keys with predPrefix
	sc   scope
}

// lthL is the ℓ of every lth query: the second-largest weight per key.
const lthL = 2

// params renders the query's URL parameters at current epoch e.
func (q query) params(e int) string {
	v := url.Values{}
	v.Set("agg", q.agg)
	v.Set("est", q.est)
	switch q.agg {
	case "sum":
		v.Set("b", strconv.Itoa(q.b))
	case "lth":
		v.Set("l", strconv.Itoa(lthL))
	}
	if q.pred {
		v.Set("prefix", predPrefix)
	}
	if ep := q.sc.epochs(e); ep != "" {
		v.Set("epochs", ep)
	}
	return v.Encode()
}

func (q query) String() string {
	s := q.sc.String() + "/" + q.agg
	if q.agg == "sum" {
		s += strconv.Itoa(q.b)
	}
	s += "/" + q.est
	if q.pred {
		s += "/pred"
	}
	return s
}

// summaryKeys names the AW-summaries the server builds to answer q, as
// its snapshot memo keys them: estimator, aggregate and its parameters,
// per scope. jaccard reuses the min and max summaries.
func (q query) summaryKeys() []string {
	p := q.sc.String() + "/" + q.est + "/"
	switch q.agg {
	case "sum":
		return []string{p + "sum" + strconv.Itoa(q.b)}
	case "jaccard":
		return []string{p + "min", p + "max"}
	}
	return []string{p + q.agg}
}

// coldShare returns the share of queries in one pass over mix (after a
// freeze emptied every memo) that build at least one summary.
func coldShare(mix []query) float64 {
	seen := make(map[string]bool)
	cold := 0
	for _, q := range mix {
		hit := false
		for _, k := range q.summaryKeys() {
			if !seen[k] {
				seen[k], hit = true, true
			}
		}
		if hit {
			cold++
		}
	}
	return float64(cold) / float64(len(mix))
}

// workload describes one benchmark workload: its servers, its inputs and
// its query mix.
type workload struct {
	name      string
	peers     int // cws-serve processes (3 = a -peers cluster)
	k, retain int
	// keysPerEpoch keys make one round's epoch; chunkKeys keys make one
	// POST /ingest body.
	keysPerEpoch, chunkKeys int
	templates               int // distinct epoch templates the rounds cycle through
	history                 int // epochs a first process freezes, recovered at setup
	mix                     func(rng *rand.Rand) []query
}

var allAggs = []string{"sum", "total", "min", "max", "L1", "lth", "jaccard"}
var allEsts = []string{"aw", "discarded"}

// workloads are the benchmark's workloads, by name. Why each exists is in
// README.md; the sizes here are its inputs' make-up.
var workloads = map[string]*workload{
	// The write path: large epochs against a small k, so the producer
	// prunes most offers; worker 0 freezes at each epoch boundary while
	// worker 1 keeps streaming, and then sends four cumulative queries,
	// each of which builds its summary (cold).
	"ingest-durable": {
		name: "ingest-durable", peers: 1, k: 1024, retain: 8,
		keysPerEpoch: 65536, chunkKeys: 4096, templates: 2,
		mix: func(*rand.Rand) []query {
			return []query{
				{agg: "sum", est: "aw", b: 0},
				{agg: "total", est: "discarded"},
				{agg: "L1", est: "aw", pred: true},
				{agg: "lth", est: "discarded", pred: true},
			}
		},
	},
	// The read path: small epochs (comparable to k, so most offers are
	// admitted) over a recovered history; every aggregate, both
	// estimator families, four windows and the cumulative snapshot, with
	// and without the predicate. Each (scope, aggregate, estimator) is
	// asked three times a round, so about a quarter of the queries build
	// a summary and the rest hit the memo.
	"query-timetravel": {
		name: "query-timetravel", peers: 1, k: 4096, retain: 32,
		keysPerEpoch: 6144, chunkKeys: 512, templates: 4, history: 40,
		mix: func(rng *rand.Rand) []query {
			// Three passes over every (scope, estimator, aggregate): the
			// first builds the summaries, the second and third (with the
			// predicate, then without) reuse them. The seed orders each
			// pass; keeping the cold queries in the first pass keeps how
			// many of them run at once the same for every seed.
			scopes := []scope{cumulative, {0, 1}, {0, 4}, {0, 16}, {24, 8}}
			var mix []query
			for _, pred := range []bool{false, true, false} {
				var pass []query
				for i, sc := range scopes {
					for j, est := range allEsts {
						for _, agg := range allAggs {
							pass = append(pass, query{agg: agg, est: est, b: (i + j) % numAssign, pred: pred, sc: sc})
						}
					}
				}
				rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
				mix = append(mix, pass...)
			}
			return mix
		},
	},
	// The scatter-gather path: three peers; every /cluster/query fetches
	// and decodes every peer's segment, then merges, combines and
	// summarizes (the router keeps no memo).
	"cluster-scatter": {
		name: "cluster-scatter", peers: 3, k: 1024, retain: 8,
		keysPerEpoch: 6144, chunkKeys: 2048, templates: 4,
		mix: func(rng *rand.Rand) []query {
			kinds := []query{{agg: "sum", est: "aw"}, {agg: "L1", est: "discarded"}, {agg: "jaccard", est: "aw"}, {agg: "max", est: "discarded"}}
			var mix []query
			for _, sc := range []scope{cumulative, {0, 1}, {0, 4}} {
				for _, kd := range kinds {
					for _, pred := range []bool{false, true} {
						q := kd
						q.b, q.pred, q.sc = rng.IntN(numAssign), pred, sc
						mix = append(mix, q)
					}
				}
			}
			rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			return mix
		},
	},
}

// workloadOrder is the order workloads are listed in.
var workloadOrder = []string{"ingest-durable", "query-timetravel", "cluster-scatter"}
