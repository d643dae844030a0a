package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
	"coordsample/internal/hashing"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer. Spans of one replayed operation share a trace id; a span's parent
// is the span that caused it (0 for a trace's root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   uint64
}

// do records fn as a span named name under parent (0: a new trace's root)
// and returns the span.
func (t *tracer) do(name string, parent *span, fn func(sp *span)) span {
	t.mu.Lock()
	t.ids++
	sp := span{Name: name, ID: t.ids}
	t.mu.Unlock()
	if parent != nil {
		sp.Trace, sp.Parent = parent.Trace, parent.ID
	} else {
		sp.Trace = sp.ID
	}
	sp.Start = int64(time.Since(t.t0))
	fn(&sp)
	sp.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// byName returns the durations (ns) of the spans named name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span name's count, total and self time (ns): a
// span's self time is its duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() map[string][3]float64 {
	children := make(map[uint64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{t.t0.Add(time.Duration(s.Start)), t.t0.Add(time.Duration(s.End))})
		}
	}
	out := make(map[string][3]float64)
	for _, s := range t.spans {
		v := out[s.Name]
		v[0]++
		v[1] += s.dur()
		v[2] += s.dur() - float64(busyTime(children[s.ID]))
		out[s.Name] = v
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNs measures what recording one span costs, so the trace's
// overhead can be reported.
func spanCostNs() float64 {
	t := &tracer{t0: time.Now()}
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.do("empty", nil, func(*span) {})
	}
	return float64(time.Since(start)) / n
}

// replayEpochs is how many epochs the traced replay builds: enough to
// compact past the retention ring and to cover the mix's oldest window.
func replayEpochs(w *workload, mix []query) int {
	n := w.retain + 4
	for _, q := range mix {
		n = max(n, q.sc.back+q.sc.width+1)
	}
	return n
}

// traceRun replays the workload's inputs in-process through the public
// functions of every layer, each call wrapped in a span, and returns the
// per-layer metrics with the reconciliation remainders (from the
// end-to-end metrics e2e of the untraced run just made), plus the share of
// offers the sketches admitted. The spans are written under
// .bench_build/spans.
func traceRun(e *env, e2e map[string]metric, runDir string) (map[string]metric, float64, error) {
	w := e.w
	cfg := sampleConfig(w.k)
	asg := cfg.Assigner()
	t := &tracer{t0: time.Now()}
	m := map[string]metric{}
	ms := func(ns []float64) float64 { return median(ns) / 1e6 }

	// cluster.fetch: GET /sketches from every live server of the run,
	// timed by this client; then decode and merge what came back, as the
	// router does.
	var fetchMed []float64
	var segs [][]byte
	for i, p := range e.srv {
		var ds []float64
		for rep := 0; rep < 10; rep++ {
			var body []byte
			sp := t.do("cluster.fetch", nil, func(*span) {
				code, b, err := do(e.clients[0], http.MethodGet, "http://"+p.addr+"/sketches", nil, "")
				if err != nil || code != http.StatusOK {
					e.problem("traced fetch from server %d: status %d, %v", i, code, err)
				}
				body = b
			})
			ds = append(ds, sp.dur())
			if rep == 0 {
				segs = append(segs, body)
			}
		}
		fetchMed = append(fetchMed, median(ds))
	}
	var peerSets [][]*sketch.BottomK
	for _, seg := range segs {
		for rep := 0; rep < 5; rep++ {
			var dec []*sketch.Decoded
			t.do("sketch.decode_segment", nil, func(*span) {
				var err error
				if dec, err = sketch.DecodeSegment(seg); err != nil {
					e.problem("decoding a fetched segment: %v", err)
				}
			})
			if rep == 0 {
				set := make([]*sketch.BottomK, len(dec))
				for b, d := range dec {
					set[b] = d.BottomK
				}
				peerSets = append(peerSets, set)
			}
		}
	}
	peerMerge := 0.0
	if len(peerSets) > 1 {
		sp := t.do("sketch.peer_merge", nil, func(*span) {
			for b := 0; b < numAssign; b++ {
				var parts []*sketch.BottomK
				for _, set := range peerSets {
					parts = append(parts, set[b])
				}
				if _, err := sketch.Merge(parts...); err != nil {
					e.problem("merging fetched segments: %v", err)
				}
			}
		})
		peerMerge = sp.dur()
	}

	// The layers below the server, epoch by epoch over the workload's own
	// inputs.
	st, err := store.Open(store.Config{Dir: filepath.Join(runDir, "replay-store"), Retain: w.retain, Sample: cfg, Assignments: numAssign})
	if err != nil {
		return nil, 0, err
	}
	n := replayEpochs(w, e.mix)
	cum := make([]*sketch.BottomK, numAssign)
	for b := range cum {
		cum[b] = sketch.NewBottomKBuilderWithFingerprint(w.k, asg.Fingerprint(b, w.k)).Sketch()
	}
	var epochs [][]*sketch.BottomK
	offers, admitted := 0, 0
	var mallocs uint64
	var segBytes []float64
	for r := 0; r < n; r++ {
		obs := roundObservations(e.tmpls[r%len(e.tmpls)], r)
		for _, o := range obs {
			offers += len(o)
		}
		admitted += admissions(asg, w.k, obs)
		t.do("replay.epoch", nil, func(root *span) {
			t.do("hashing.Hash64", root, func(*span) {
				var x uint64
				for b, o := range obs {
					seed := asg.RankHashSeed(b)
					for _, ob := range o {
						x ^= hashing.Hash64(seed, ob.Key)
					}
				}
				sinkU64 = x
			})
			t.do("rank.Rank", root, func(*span) {
				x := 0.0
				for b, o := range obs {
					for _, ob := range o {
						x += asg.Rank(ob.Key, b, ob.Weight)
					}
				}
				sinkF64 = x
			})
			ms := shard.NewMultiSketcherLanes(asg, numAssign, w.k, serverShards, 0, 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t.do("shard.OfferBatch", root, func(*span) {
				var wg sync.WaitGroup
				for j, ml := range ms.Lanes() {
					wg.Add(1)
					go func(j int, ml *shard.MultiLane) {
						defer wg.Done()
						for b, o := range obs {
							part := o[j*len(o)/2 : (j+1)*len(o)/2]
							for lo := 0; lo < len(part); lo += 4096 {
								ml.OfferBatch(b, part[lo:min(lo+4096, len(part))])
							}
						}
					}(j, ml)
				}
				wg.Wait()
			})
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			var ep []*sketch.BottomK
			t.do("shard.freeze", root, func(*span) {
				for _, sk := range ms.Sketchers() {
					ep = append(ep, sk.Sketch())
				}
			})
			t.do("sketch.merge", root, func(*span) {
				for b := range cum {
					merged, err := sketch.Merge(cum[b], ep[b])
					if err != nil {
						e.problem("replay merge: %v", err)
						return
					}
					cum[b] = merged
				}
			})
			var seg bytes.Buffer
			t.do("sketch.encode_segment", root, func(*span) {
				metas := make([]sketch.WireMeta, numAssign)
				for b := range metas {
					metas[b] = sketch.WireMeta{Family: cfg.Family, Mode: cfg.Mode, Seed: cfg.Seed, Assignment: b}
				}
				if _, err := sketch.EncodeSegment(&seg, metas, ep); err != nil {
					e.problem("replay encode: %v", err)
				}
			})
			segBytes = append(segBytes, float64(seg.Len()))
			t.do("sketch.decode_segment", root, func(*span) {
				if _, err := sketch.DecodeSegment(seg.Bytes()); err != nil {
					e.problem("replay decode: %v", err)
				}
			})
			t.do("store.append", root, func(*span) {
				if _, err := st.AppendEpoch(ep); err != nil {
					e.problem("replay append: %v", err)
				}
			})
			epochs = append(epochs, ep)
		})
	}
	if err := st.Close(); err != nil {
		return nil, 0, err
	}
	for rep := 0; rep < 3; rep++ {
		t.do("store.open", nil, func(*span) {
			s, err := store.Open(store.Config{Dir: filepath.Join(runDir, "replay-store"), Retain: w.retain, Sample: cfg, Assignments: numAssign})
			if err != nil {
				e.problem("replay reopen: %v", err)
				return
			}
			s.Close()
		})
	}

	// The query layers over the final state: every scope of the mix (a
	// 4-epoch window stands in where the mix has none), every aggregate
	// kind of the mix in both estimator families.
	scopes := []scope{cumulative}
	seen := map[scope]bool{cumulative: true}
	for _, q := range e.mix {
		if !seen[q.sc] {
			seen[q.sc] = true
			scopes = append(scopes, q.sc)
		}
	}
	if len(scopes) == 1 {
		scopes = append(scopes, scope{0, 4})
	}
	pred := func(key string) bool { return len(key) >= len(predPrefix) && key[:len(predPrefix)] == predPrefix }
	var summAlloc []float64
	for _, sc := range scopes {
		t.do("replay.scope "+sc.String(), nil, func(root *span) {
			sks := cum
			if sc.width > 0 {
				lo, hi := sc.bounds(n)
				t.do("sketch.window_merge", root, func(*span) {
					sks = make([]*sketch.BottomK, numAssign)
					for b := range sks {
						var parts []*sketch.BottomK
						for ep := lo; ep <= hi; ep++ {
							parts = append(parts, epochs[ep-1][b])
						}
						merged, err := sketch.Merge(parts...)
						if err != nil {
							e.problem("replay window merge: %v", err)
							return
						}
						sks[b] = merged
					}
				})
			}
			var d *estimate.Dispersed
			t.do("core.combine", root, func(*span) {
				var err error
				if d, err = core.CombineDispersed(cfg, sks); err != nil {
					e.problem("replay combine: %v", err)
				}
			})
			if d == nil {
				return
			}
			done := map[string]bool{}
			for _, q := range e.mix {
				for _, estName := range allEsts {
					f := aggFunc(q)
					key := q.agg + strconv.Itoa(q.b) + estName
					if done[key] {
						continue
					}
					done[key] = true
					est, _ := estimate.ParseEstimator(estName)
					var aw estimate.AWSummary
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					t.do("estimate.summarize", root, func(*span) { aw = est.Summary(d, f) })
					runtime.ReadMemStats(&after)
					summAlloc = append(summAlloc, float64(after.TotalAlloc-before.TotalAlloc))
					t.do("estimate.eval", root, func(*span) { sinkF64, _ = aw.EstimateWithStdErr(pred) })
					m["estimate.summary_entries"] = metric{m["estimate.summary_entries"].Value + float64(aw.Len()), "entries"}
				}
			}
		})
	}
	nSumm := float64(len(t.byName("estimate.summarize")))
	m["estimate.summary_entries"] = metric{m["estimate.summary_entries"].Value / nSumm, "entries"}

	for _, q := range e.mix {
		v, err := url.ParseQuery(q.params(n))
		if err != nil {
			return nil, 0, err
		}
		for rep := 0; rep < 20; rep++ {
			t.do("cliquery.parse", nil, func(*span) {
				if _, err := cliquery.ParseHTTPParams(v, numAssign); err != nil {
					e.problem("replay parse %s: %v", q, err)
				}
			})
		}
	}

	if err := replayServer(e, t, runDir, n); err != nil {
		return nil, 0, err
	}

	// Per-layer metrics from the spans.
	perOffer := func(name string) float64 {
		total := 0.0
		for _, d := range t.byName(name) {
			total += d
		}
		return total / float64(offers)
	}
	m["hashing.hash_ns_per_offer"] = metric{perOffer("hashing.Hash64"), "ns"}
	m["rank.rank_ns_per_offer"] = metric{perOffer("rank.Rank"), "ns"}
	m["shard.offer_ns_per_offer"] = metric{perOffer("shard.OfferBatch"), "ns"}
	m["shard.allocs_per_offer"] = metric{float64(mallocs) / float64(offers), "allocs"}
	m["shard.freeze_ms"] = metric{ms(t.byName("shard.freeze")), "ms"}
	m["sketch.merge_ms"] = metric{ms(t.byName("sketch.merge")), "ms"}
	m["sketch.window_merge_ms"] = metric{ms(t.byName("sketch.window_merge")), "ms"}
	m["sketch.encode_segment_ms"] = metric{ms(t.byName("sketch.encode_segment")), "ms"}
	m["sketch.segment_kb"] = metric{median(segBytes) / 1024, "KB"}
	m["sketch.decode_segment_ms"] = metric{ms(t.byName("sketch.decode_segment")), "ms"}
	m["store.append_ms"] = metric{ms(t.byName("store.append")), "ms"}
	m["store.open_ms"] = metric{ms(t.byName("store.open")), "ms"}
	m["core.combine_ms"] = metric{ms(t.byName("core.combine")), "ms"}
	m["estimate.summarize_ms"] = metric{ms(t.byName("estimate.summarize")), "ms"}
	m["estimate.summarize_alloc_mb"] = metric{median(summAlloc) / (1 << 20), "MB"}
	m["estimate.eval_us"] = metric{median(t.byName("estimate.eval")) / 1e3, "us"}
	m["cliquery.parse_us"] = metric{median(t.byName("cliquery.parse")) / 1e3, "us"}
	m["server.ingest_ms_per_req"] = metric{ms(t.byName("server.ingest")), "ms"}
	m["server.freeze_ms"] = metric{ms(t.byName("server.freeze")), "ms"}
	m["server.query_warm_us"] = metric{median(t.byName("server.query_warm")) / 1e3, "us"}
	m["server.query_cold_ms"] = metric{ms(t.byName("server.query_cold")), "ms"}
	m["server.sketches_ms"] = metric{ms(t.byName("server.sketches")), "ms"}
	slowest := 0.0
	for _, f := range fetchMed {
		slowest = max(slowest, f)
	}
	m["cluster.fetch_ms"] = metric{ms(t.byName("cluster.fetch")), "ms"}

	v := func(name string) float64 { return m[name].Value }
	m["reconcile.ingest_remainder_ms"] = metric{e2e["ingest_req_p50_ms"].Value - v("server.ingest_ms_per_req"), "ms"}
	m["reconcile.freeze_remainder_ms"] = metric{v("server.freeze_ms") - (v("shard.freeze_ms") + v("sketch.merge_ms") + v("store.append_ms")), "ms"}
	queryParts := v("cliquery.parse_us")/1e3 + v("core.combine_ms") + v("estimate.summarize_ms") + v("estimate.eval_us")/1e3
	m["reconcile.cold_query_remainder_ms"] = metric{v("server.query_cold_ms") - (queryParts + v("sketch.window_merge_ms")), "ms"}
	m["reconcile.cluster_query_remainder_ms"] = metric{e2e["query_p50_ms"].Value -
		(slowest/1e6 + float64(len(e.srv))*v("sketch.decode_segment_ms") + peerMerge/1e6 + queryParts), "ms"}

	// The ledger: every span name's calls, total and self time.
	cost := spanCostNs()
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	wall := 0.0
	for name, s := range self {
		names = append(names, name)
		wall += s[2]
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: ledger (%s, %d spans)\n%-28s %8s %12s %12s\n", w.name, len(t.spans), "span", "calls", "total_ms", "self_ms")
	for _, name := range names {
		s := self[name]
		fmt.Fprintf(os.Stderr, "%-28s %8.0f %12.3f %12.3f\n", name, s[0], s[1]/1e6, s[2]/1e6)
	}
	m["trace.overhead_pct"] = metric{100 * cost * float64(len(t.spans)) / wall, "%"}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed))
	if err := t.write(path); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return m, float64(admitted) / float64(offers), nil
}

var (
	sinkU64 uint64
	sinkF64 float64
)

// roundObservations returns round r's offers per assignment, in the order
// the chunks carry them.
func roundObservations(tp *template, r int) [][]shard.Observation {
	obs := make([][]shard.Observation, numAssign)
	tag := roundTag(r)
	for i, body := range tp.bodies {
		key := body + tag
		for b := 0; b < numAssign; b++ {
			if tp.w[i][b] != 0 {
				obs[b] = append(obs[b], shard.Observation{Key: key, Weight: tp.w[i][b]})
			}
		}
	}
	return obs
}

// admissions counts the offers of one epoch, per assignment in stream
// order, whose rank is below the running k-th smallest rank at arrival:
// the offers a bottom-k sketch must admit rather than reject.
func admissions(asg rank.Assigner, k int, obs [][]shard.Observation) int {
	n := 0
	for b, o := range obs {
		h := &maxHeap{}
		for _, ob := range o {
			r := asg.Rank(ob.Key, b, ob.Weight)
			switch {
			case h.Len() < k:
				heap.Push(h, r)
				n++
			case r < (*h)[0]:
				(*h)[0] = r
				heap.Fix(h, 0)
				n++
			}
		}
	}
	return n
}

type maxHeap []float64

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// aggFunc maps a query to the aggregate its summary estimates.
func aggFunc(q query) estimate.AggFunc {
	switch q.agg {
	case "sum":
		return estimate.SingleOf(q.b)
	case "total":
		return estimate.TotalOf()
	case "min", "jaccard":
		return estimate.MinOf()
	case "max":
		return estimate.MaxOf()
	case "L1":
		return estimate.RangeOf()
	case "lth":
		return estimate.LthLargestOf(lthL)
	}
	panic("unknown aggregate " + q.agg)
}

// replayServer drives an in-process server.Server (durable, configured as
// the run's servers) through n epochs of the workload's chunks, a freeze
// after each, and after each of the last three freezes the query mix twice
// (the second pass is all memo hits) and a GET /sketches.
func replayServer(e *env, t *tracer, runDir string, n int) error {
	w := e.w
	cfg := sampleConfig(w.k)
	st, err := store.Open(store.Config{Dir: filepath.Join(runDir, "replay-server"), Retain: w.retain, Sample: cfg, Assignments: numAssign})
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := server.New(server.Config{Sample: cfg, Assignments: numAssign, Shards: serverShards, Retain: w.retain, Store: st})
	if err != nil {
		return err
	}
	defer srv.Close()
	serve := func(method, target string, body []byte, ctype string) int {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	check := func(what string, code int) {
		if code != http.StatusOK {
			e.problem("in-process %s: status %d", what, code)
		}
	}
	var buf []byte
	for r := 0; r < n; r++ {
		var chunks []*chunk
		if e.chunks != nil {
			chunks = e.chunks[r%len(e.chunks)]
		} else {
			chunks = encodeChunks(e.tmpls[r%len(e.tmpls)], w.chunkKeys)
		}
		for _, c := range chunks {
			buf = c.materialize(buf, r)
			t.do("server.ingest", nil, func(*span) {
				check("ingest", serve(http.MethodPost, "/ingest", buf, server.ContentTypeBinaryIngest))
			})
		}
		t.do("server.freeze", nil, func(*span) { check("freeze", serve(http.MethodPost, "/freeze", nil, "")) })
		if r < n-3 {
			continue
		}
		built := map[string]bool{}
		for pass := 0; pass < 2; pass++ {
			for _, q := range e.mix {
				name := "server.query_warm"
				for _, k := range q.summaryKeys() {
					if !built[k] {
						built[k], name = true, "server.query_cold"
					}
				}
				t.do(name, nil, func(*span) { check("query "+q.String(), serve(http.MethodGet, "/query?"+q.params(r+1), nil, "")) })
			}
		}
		for rep := 0; rep < 3; rep++ {
			t.do("server.sketches", nil, func(*span) { check("sketches", serve(http.MethodGet, "/sketches", nil, "")) })
		}
	}
	return nil
}
