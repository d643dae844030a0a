package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"
)

// freezeEpoch posts a freeze and returns the epoch it acknowledged (the
// highest peer epoch of a cluster freeze), or -1 on failure.
func (e *env) freezeEpoch(wk, s int, timed bool) int {
	path := "/freeze"
	if e.w.peers > 1 {
		path = "/cluster/freeze"
	}
	start := time.Now()
	code, resp, err := do(e.clients[wk], http.MethodPost, "http://"+e.srv[s].addr+path, nil, "")
	end := time.Now()
	if err != nil || code != http.StatusOK {
		e.opFailed(timed, "freeze at %s: status %d, %v, %s", e.srv[s].addr, code, err, firstLine(resp))
		return -1
	}
	var r struct {
		Epoch  int            `json:"epoch"`
		Epochs map[string]int `json:"epochs"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		e.problem("freeze response %q: %v", firstLine(resp), err)
		return -1
	}
	for _, ep := range r.Epochs {
		if r.Epoch != 0 && ep != r.Epoch {
			e.problem("cluster freeze left peers at different epochs: %v", r.Epochs)
		}
		r.Epoch = ep
	}
	e.mu.Lock()
	e.epoch = max(e.epoch, r.Epoch)
	if e.w.peers > 1 {
		for i := range e.freezes {
			e.freezes[i]++
		}
	} else {
		e.freezes[s]++
	}
	e.mu.Unlock()
	if timed {
		e.rec[wk].freeze = append(e.rec[wk].freeze, sample{iv: interval{start, end}})
	}
	return r.Epoch
}

// runStream is ingest-durable's timed phase. Both workers take the next
// chunk from one sequence of rounds; whenever the sequence has moved past
// a round boundary, worker 0 freezes and sends the cumulative queries
// while worker 1 keeps streaming. After the deadline the round in
// progress is finished, so every run makes whole rounds.
func (e *env) runStream(deadline time.Time) {
	cpr := len(e.chunks[0])
	base := e.round
	var mu sync.Mutex
	next, rounds := 0, -1 // rounds: how many rounds the run makes, once decided
	grab := func() (r, c int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if rounds < 0 && time.Now().After(deadline) {
			rounds = (next + cpr - 1) / cpr
		}
		if rounds >= 0 && next >= rounds*cpr {
			return 0, 0, false
		}
		r, c = next/cpr, next%cpr
		next++
		return r, c, true
	}
	dispatched := func() (full int, done bool) {
		mu.Lock()
		defer mu.Unlock()
		if rounds >= 0 && next >= rounds*cpr {
			return rounds, true
		}
		return next / cpr, false
	}
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var buf []byte
			frozen := 0
			freezeDue := func() {
				full, _ := dispatched()
				for ; frozen < full; frozen++ {
					if ep := e.freezeEpoch(0, 0, true); ep > 0 {
						for _, q := range e.mix {
							e.query(0, 0, q, ep, true)
						}
					}
				}
			}
			for {
				if wk == 0 {
					freezeDue()
				}
				r, c, ok := grab()
				if !ok {
					break
				}
				ch := e.chunks[(base+r)%len(e.chunks)][c]
				buf = ch.materialize(buf, base+r)
				e.ingest(wk, 0, buf, ch.offers, true)
			}
			if wk == 0 {
				freezeDue()
			}
		}(wk)
	}
	wg.Wait()
	e.round = base + rounds
	// Measured before the untimed freeze below, which holds only what
	// arrived after worker 0's last freeze (often nothing) and would make
	// the newest retained segment's size depend on that race.
	e.measureDisk()
	// Worker 1's last chunk may have landed after worker 0's last freeze.
	e.freezeEpoch(0, 0, false)
}

// runRounds is the timed phase of query-timetravel and cluster-scatter.
// Each round ingests one epoch (worker 0 alone on one node; both workers,
// each offer routed to its owner, on a cluster), freezes it, and runs the
// query mix on both workers. Between rounds, with no request in flight,
// the next round's cluster input is encoded and every window the round
// queried is checked against the reference.
func (e *env) runRounds(deadline time.Time) {
	maxBack := 0
	for _, q := range e.mix {
		maxBack = max(maxBack, q.sc.back+q.sc.width)
	}
	for time.Now().Before(deadline) {
		// Collect the previous round's checking garbage now, while no
		// request is in flight, rather than during a timed request.
		runtime.GC()
		r := e.round
		type item struct {
			s      int
			body   []byte
			offers int
		}
		var items []item
		if e.w.peers == 1 {
			for _, c := range e.chunks[r%len(e.chunks)] {
				items = append(items, item{0, c.materialize(nil, r), c.offers})
			}
		} else {
			// Interleave the peers' chunks so both workers load all peers.
			routed := encodeRouted(e.tmpls[r%len(e.tmpls)], r, e.w.peers, e.w.chunkKeys)
			for i := 0; len(items) < countChunks(routed); i++ {
				for p, cs := range routed {
					if i < len(cs) {
						items = append(items, item{p, cs[i].body, cs[i].offers})
					}
				}
			}
		}
		ingestWorkers := 1
		if e.w.peers > 1 {
			ingestWorkers = 2
		}
		parallel(ingestWorkers, len(items), func(wk, i int) {
			e.ingest(wk, items[i].s, items[i].body, items[i].offers, true)
		})
		e.round++
		ep := e.freezeEpoch(0, r%e.w.peers, true)
		if ep != e.round {
			e.problem("round %d froze epoch %d, want %d", r, ep, e.round)
			return
		}
		parallel(2, len(e.mix), func(wk, i int) {
			e.query(wk, i%e.w.peers, e.mix[i], ep, true)
		})
		e.checkWindows(ep, maxBack)
	}
	e.measureDisk()
}

// measureDisk records the bytes in the servers' data directories at the
// end of the timed phase.
func (e *env) measureDisk() {
	e.diskBytes = 0
	for _, p := range e.srv {
		n, err := dirBytes(p.dir)
		if err != nil {
			e.problem("measuring %s: %v", p.dir, err)
		}
		e.diskBytes += n
	}
}

func countChunks(routed [][]*chunk) int {
	n := 0
	for _, cs := range routed {
		n += len(cs)
	}
	return n
}

// parallel runs n operations on workers goroutines, each taking the next
// index, and waits for them.
func parallel(workers, n int, op func(wk, i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				op(wk, i)
			}
		}(wk)
	}
	wg.Wait()
}

// checkWindows checks every window of the mix at epoch ep against the
// reference.
func (e *env) checkWindows(ep, maxBack int) {
	e.ref.fold(e.round, true)
	e.ref.forget(e.round - maxBack - 1)
	seen := make(map[scope]bool)
	for _, q := range e.mix {
		if q.sc.width == 0 || seen[q.sc] {
			continue
		}
		seen[q.sc] = true
		lo, hi := q.sc.bounds(ep)
		e.checkState(lo, hi)
	}
}

// finalQueries returns the end-of-run query set: every aggregate, both
// estimator families and both predicates, over every scope of the mix.
func (e *env) finalQueries() []query {
	scopes := []scope{cumulative}
	seen := map[scope]bool{cumulative: true}
	for _, q := range e.mix {
		if !seen[q.sc] {
			seen[q.sc] = true
			scopes = append(scopes, q.sc)
		}
	}
	var out []query
	for _, sc := range scopes {
		for _, est := range allEsts {
			for _, agg := range allAggs {
				for _, pred := range []bool{false, true} {
					out = append(out, query{agg: agg, est: est, pred: pred, sc: sc, b: len(out) % numAssign})
				}
			}
		}
	}
	return out
}

// finish runs the end-of-trial checks on the final state: the cumulative
// sketches against the brute-force reference, with exact set every final
// query against its exact aggregate, and the servers' /metrics counters
// against what the trial sent and had acknowledged.
func (e *env) finish(epoch int, exact bool) {
	if e.w.history == 0 && e.w.peers == 1 {
		e.ref.foldParallel(e.round)
	} else {
		e.ref.fold(e.round, true)
	}
	e.checkState(0, 0)
	var final []query
	if exact {
		final = e.finalQueries()
	}
	e.finalAsked = len(final)
	for i, q := range final {
		a := e.query(i%2, i%e.w.peers, q, epoch, false)
		if a == nil {
			continue
		}
		lo, hi := 0, e.round-1
		if q.sc.width > 0 {
			l, h := q.sc.bounds(epoch)
			lo, hi = l-1, h-1
		}
		z, err := checkExact(q, a, e.ref.exactOver(q, lo, hi))
		if err != nil {
			e.problem("%v", err)
		}
		if z > e.maxZ {
			e.maxZ, e.maxZQuery = z, q.String()
		}
	}
	e.reconcile()
}

// clusterQueries counts /cluster/query requests answered.
func (e *env) clusterQueries() int {
	n := e.finalAsked + len(e.mix) // final check + warm-up
	for _, r := range e.rec {
		n += len(r.query)
	}
	return n
}

// peerRPC holds one run's cluster retry and hedge counts.
type peerRPC struct{ retries, hedges float64 }

// reconcile checks every server's cws_offers_total, cws_freezes_total and
// cws_queries_total against what the run sent and had acknowledged, and on
// a cluster that every peer exported one segment per cluster query.
func (e *env) reconcile() {
	var rpc peerRPC
	scrapes := make([]map[string]float64, len(e.srv))
	for i, p := range e.srv {
		m, err := scrape(e.clients[0], p.addr)
		if err != nil {
			e.problem("scraping %s: %v", p.addr, err)
			return
		}
		scrapes[i] = m
	}
	sum := func(m map[string]float64, name string) float64 {
		total := 0.0
		for k, v := range m {
			if k == name || strings.HasPrefix(k, name+"{") {
				total += v
			}
		}
		return total
	}
	for i, m := range scrapes {
		check := func(name string, want int) {
			if got := sum(m, name); got != float64(want) {
				e.problem("server %d: %s = %v, the run had %d acknowledged", i, name, got, want)
			}
		}
		check("cws_offers_total", e.offers[i])
		check("cws_freezes_total", e.freezes[i])
		check("cws_queries_total", e.queries[i])
		rpc.retries += sum(m, "cws_peer_rpc_retries_total")
		rpc.hedges += sum(m, "cws_peer_rpc_hedges_total")
	}
	if e.w.peers > 1 {
		for i, m := range scrapes {
			got, want := sum(m, "cws_segment_exports_total"), float64(e.clusterQueries())
			if rpc.retries+rpc.hedges == 0 && got != want {
				e.problem("peer %d exported %v segments for %v cluster queries", i, got, want)
			}
		}
	}
	e.rpc = rpc
}

// describe reports a run's checks for the log.
func (e *env) describe() string {
	return fmt.Sprintf("rounds=%d max|err|/stderr=%.2f (%s) problems=%d", e.round, e.maxZ, e.maxZQuery, len(e.problems))
}
