package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/sketch"
)

// Server configuration shared by every workload. The hash seed is the
// servers' sampling configuration, not the workload seed: the servers get
// only the generated inputs.
const (
	hashSeed     = 1
	serverShards = 4
)

func sampleConfig(k int) core.Config {
	return core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: hashSeed, K: k}
}

// sample is one timed operation.
type sample struct {
	iv     interval
	offers int    // offers acknowledged, for ingest
	label  string // the query, for queries
}

func (s sample) ms() float64 { return float64(s.iv.end.Sub(s.iv.start)) / 1e6 }

// recorder collects one worker's timed operations and answer epochs.
type recorder struct {
	ingest, freeze, query []sample
	lastEpoch             int
}

// env is one set-up workload: its servers, inputs, reference and counters.
type env struct {
	w       *workload
	seed    uint64
	bin     string
	dir     string
	tmpls   []*template
	chunks  [][]*chunk // per template, single-node workloads
	mix     []query
	srv     []*serverProc
	clients [2]*http.Client
	ref     *reference

	round int // rounds ingested so far; round r is stamped with tag r

	// Per server since its process started: what it acknowledged.
	offers, freezes, queries []int

	epoch int     // highest epoch a freeze acknowledged
	rpc   peerRPC // cluster retries and hedges, from the final scrape

	diskBytes int64 // in the data directories at the end of the timed phase

	mu         sync.Mutex
	rec        [2]recorder
	failed     int
	failures   []string // first few failed operations, for the log
	problems   []string // correctness failures
	maxZ       float64  // largest |estimate − exact| / stderr of the final queries
	maxZQuery  string
	finalAsked int // final queries sent by finish
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
}

// problem records a correctness failure.
func (e *env) problem(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
	if len(e.problems) == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", e.problems[0])
	}
}

// fail records a failed operation.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed++
	if len(e.failures) < 5 {
		msg := fmt.Sprintf(format, args...)
		e.failures = append(e.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %s\n", msg)
	}
}

// do performs one request and reads the whole response.
func do(c *http.Client, method, u string, body []byte, ctype string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// ingest posts one chunk to server s. timed records it as a sample.
func (e *env) ingest(wk, s int, body []byte, offers int, timed bool) bool {
	start := time.Now()
	code, resp, err := do(e.clients[wk], http.MethodPost, "http://"+e.srv[s].addr+"/ingest", body, server.ContentTypeBinaryIngest)
	end := time.Now()
	if err != nil || code != http.StatusOK {
		e.opFailed(timed, "ingest to %s: status %d, %v, %s", e.srv[s].addr, code, err, firstLine(resp))
		return false
	}
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(resp, &r); err != nil || r.Accepted != offers {
		e.problem("ingest to %s acknowledged %d offers of %d (%v)", e.srv[s].addr, r.Accepted, offers, err)
	}
	e.mu.Lock()
	e.offers[s] += offers
	e.mu.Unlock()
	if timed {
		e.rec[wk].ingest = append(e.rec[wk].ingest, sample{iv: interval{start, end}, offers: offers})
	}
	return true
}

// query sends q at current epoch e to server s and checks the answer's
// properties; it returns the answer (nil on failure).
func (e *env) query(wk, s int, q query, epoch int, timed bool) *answer {
	path := "/query?"
	if e.w.peers > 1 {
		path = "/cluster/query?"
	}
	start := time.Now()
	code, resp, err := do(e.clients[wk], http.MethodGet, "http://"+e.srv[s].addr+path+q.params(epoch), nil, "")
	end := time.Now()
	if err != nil || code != http.StatusOK {
		e.opFailed(timed, "query %s at %s: status %d, %v, %s", q, e.srv[s].addr, code, err, firstLine(resp))
		return nil
	}
	if e.w.peers == 1 {
		e.mu.Lock()
		e.queries[s]++
		e.mu.Unlock()
	}
	if timed {
		e.rec[wk].query = append(e.rec[wk].query, sample{iv: interval{start, end}, label: q.String()})
	}
	var a answer
	if err := json.Unmarshal(resp, &a); err != nil {
		e.problem("query %s: undecodable answer: %v", q, err)
		return nil
	}
	got, err := checkAnswer(q, &a, e.w.peers > 1)
	if err != nil {
		e.problem("%v", err)
		return nil
	}
	if got < e.rec[wk].lastEpoch {
		e.problem("query %s answered at epoch %d after an answer at epoch %d", q, got, e.rec[wk].lastEpoch)
	}
	if got < epoch {
		e.problem("query %s answered at epoch %d, after epoch %d was acknowledged", q, got, epoch)
	}
	e.rec[wk].lastEpoch = got
	return &a
}

func (e *env) opFailed(timed bool, format string, args ...any) {
	if timed {
		e.fail(format, args...)
		return
	}
	e.problem("untimed "+format, args...)
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// serverArgs returns the flags server i of n is started with.
func (e *env) serverArgs(i int, addrs []string) []string {
	args := []string{
		"-addr", addrs[i],
		"-assignments", strconv.Itoa(numAssign),
		"-k", strconv.Itoa(e.w.k),
		"-seed", strconv.Itoa(hashSeed),
		"-shards", strconv.Itoa(serverShards),
		"-retain", strconv.Itoa(e.w.retain),
		"-data-dir", filepath.Join(e.dir, fmt.Sprintf("data%d", i)),
	}
	if len(addrs) > 1 {
		peers := addrs[0]
		for _, a := range addrs[1:] {
			peers += "," + a
		}
		args = append(args, "-peers", peers, "-self", strconv.Itoa(i))
	}
	return args
}

// startServers starts the workload's servers (fresh counters) and waits
// until every one is ready.
func (e *env) startServers(tag string) error {
	addrs, err := freeAddrs(e.w.peers)
	if err != nil {
		return err
	}
	e.srv = make([]*serverProc, e.w.peers)
	for i := range e.srv {
		args := e.serverArgs(i, addrs)
		dir := filepath.Join(e.dir, fmt.Sprintf("data%d", i))
		p, err := startServer(e.bin, addrs[i], dir, filepath.Join(e.dir, fmt.Sprintf("server%d-%s.log", i, tag)), args)
		if err != nil {
			e.stopServers()
			return err
		}
		e.srv[i] = p
	}
	for _, p := range e.srv {
		if err := p.waitReady(e.clients[0], 60*time.Second); err != nil {
			e.stopServers()
			return err
		}
	}
	e.offers = make([]int, e.w.peers)
	e.freezes = make([]int, e.w.peers)
	e.queries = make([]int, e.w.peers)
	return nil
}

func (e *env) stopServers() error {
	var first error
	for _, p := range e.srv {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newEnv generates and encodes workload w's inputs from seed.
func newEnv(w *workload, seed uint64, bin, dir string) (*env, error) {
	e := &env{w: w, seed: seed, bin: bin, dir: dir}
	e.clients = [2]*http.Client{newClient(), newClient()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for t := 0; t < w.templates; t++ {
		e.tmpls = append(e.tmpls, makeTemplate(seed, t, w.keysPerEpoch))
	}
	if w.peers == 1 {
		for _, tp := range e.tmpls {
			e.chunks = append(e.chunks, encodeChunks(tp, w.chunkKeys))
		}
	}
	e.mix = w.mix(rand.New(rand.NewPCG(seed, 0x51ed)))
	e.ref = newReference(w.k, sampleConfig(w.k).Assigner(), e.tmpls)
	return e, nil
}

// buildHistory has a first server process ingest and freeze the
// workload's history epochs (rounds 0..history-1) into dir, then drain.
func buildHistory(w *workload, seed uint64, bin, dir string) error {
	e, err := newEnv(w, seed, bin, dir)
	if err != nil {
		return err
	}
	if err := e.startServers("history"); err != nil {
		return err
	}
	for i := 0; i < w.history; i++ {
		e.sequentialRound()
	}
	if len(e.problems) > 0 {
		e.stopServers()
		return fmt.Errorf("building the history: %s", e.problems[0])
	}
	if err := e.stopServers(); err != nil {
		return fmt.Errorf("stopping the history server: %w", err)
	}
	return nil
}

// setup prepares one trial of workload w: generate and encode the inputs,
// copy in the history built by buildHistory (under history) where the
// workload has one, start the servers (which recover it), and run one
// untimed warm-up round.
func setup(w *workload, seed uint64, bin, dir, history string) (*env, error) {
	e, err := newEnv(w, seed, bin, dir)
	if err != nil {
		return nil, err
	}
	if w.history > 0 {
		if err := copyFiles(filepath.Join(history, "data0"), filepath.Join(dir, "data0")); err != nil {
			return nil, fmt.Errorf("copying the history: %w", err)
		}
		e.round = w.history
	}
	if err := e.startServers("run"); err != nil {
		return nil, err
	}
	if w.peers == 1 && w.history > 0 {
		var h struct {
			Epoch int `json:"epoch"`
		}
		code, body, err := do(e.clients[0], http.MethodGet, "http://"+e.srv[0].addr+"/healthz", nil, "")
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &h) != nil || h.Epoch != w.history {
			e.stopServers()
			return nil, fmt.Errorf("recovered server reports epoch %d, want %d (%v)", h.Epoch, w.history, err)
		}
	}
	// Warm-up: one round through every operation the run times.
	e.sequentialRound()
	for i, q := range e.mix {
		e.query(i%2, i%w.peers, q, e.round, false)
	}
	if len(e.problems) > 0 {
		e.stopServers()
		return nil, fmt.Errorf("set-up failed: %s", e.problems[0])
	}
	return e, nil
}

// sequentialRound ingests round e.round from worker 0 and freezes it.
func (e *env) sequentialRound() {
	r := e.round
	if e.w.peers == 1 {
		var buf []byte
		for _, c := range e.chunks[r%len(e.chunks)] {
			buf = c.materialize(buf, r)
			e.ingest(0, 0, buf, c.offers, false)
		}
	} else {
		for p, cs := range encodeRouted(e.tmpls[r%len(e.tmpls)], r, e.w.peers, e.w.chunkKeys) {
			for _, c := range cs {
				e.ingest(0, p, c.body, c.offers, false)
			}
		}
	}
	e.freezeEpoch(0, 0, false)
	e.round++
}

// fetchSketch fetches server s's exported sketch of assignment b over
// epochs ("" for the cumulative state).
func (e *env) fetchSketch(s, b int, epochs string) (*sketch.BottomK, error) {
	u := fmt.Sprintf("http://%s/sketch?b=%d", e.srv[s].addr, b)
	if epochs != "" {
		u += "&epochs=" + epochs
	}
	code, body, err := do(e.clients[0], http.MethodGet, u, nil, "")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d, %v, %s", u, code, err, firstLine(body))
	}
	d, err := sketch.DecodeBytes(body)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", u, err)
	}
	if d.BottomK == nil {
		return nil, fmt.Errorf("%s is not a bottom-k sketch", u)
	}
	return d.BottomK, nil
}

// checkState compares every server's export of epochs lo..hi (lo = 0:
// the cumulative state), merged across peers, with the reference.
// Epoch n holds round n-1.
func (e *env) checkState(lo, hi int) {
	for b := 0; b < numAssign; b++ {
		var want []refEntry
		epochs := ""
		if lo == 0 {
			want = e.ref.cum[b]
		} else {
			var err error
			if want, err = e.ref.window(b, lo, hi); err != nil {
				e.problem("%v", err)
				return
			}
			epochs = fmt.Sprintf("%d..%d", lo, hi)
		}
		got := make([]*sketch.BottomK, e.w.peers)
		for s := range got {
			sk, err := e.fetchSketch(s, b, epochs)
			if err != nil {
				e.problem("%v", err)
				return
			}
			got[s] = sk
		}
		if err := compareSketch(e.w.k, want, got); err != nil {
			scope := "cumulative state"
			if lo != 0 {
				scope = "epochs " + epochs
			}
			e.problem("assignment %d, %s: %v", b, scope, err)
		}
	}
}
