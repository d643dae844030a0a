// Command perfbench is the repository's benchmark: closed-loop workloads
// against real cws-serve processes over loopback TCP, every end-to-end
// metric timed from exact per-request samples, every run checked against a
// reference computed apart from the program, and a traced in-process
// replay that breaks each workload down layer by layer.
//
// run.sh builds cws-serve and this command from the checkout's sources and
// runs it; see README.md for the workloads, metrics and modes.
//
//	bash perfbench/run.sh --workload query-timetravel --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload cluster-scatter --repeat 5 --out runs.jsonl
//	bash perfbench/run.sh --compare old.jsonl,new.jsonl
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a result was measured on.
type stamp struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Nproc      int                `json:"nproc"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Servers    []serverStamp      `json:"servers"`
	Rounds     int                `json:"rounds"`
	ColdShare  float64            `json:"mix_cold_share"`
	AdmitShare float64            `json:"admit_share,omitempty"`
	Samples    map[string]int     `json:"samples"`
	PeerRPC    map[string]float64 `json:"peer_rpc,omitempty"`
	MaxZ       float64            `json:"max_abs_err_over_stderr"`
	// StealShare is the share of CPU time the host took from this
	// machine's CPUs (the steal column of /proc/stat) over the timed
	// phases; -1 where /proc/stat cannot be read. Timings move with it.
	StealShare float64 `json:"host_steal_share"`
}

type serverStamp struct {
	Flags      []string `json:"flags"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	IngestMode string   `json:"ingest_mode"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs (whole rounds: the round in progress at the deadline finishes)")
	trace := flag.Int("trace", 0, "1: also replay the inputs in-process, layer by layer, and print the per-layer metrics instead of the end-to-end ones")
	serveBin := flag.String("serve-bin", ".bench_build/bin/cws-serve", "cws-serve binary under test")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's median, quartiles and max/min")
	out := flag.String("out", "", "with -repeat: append every run's stamp and result to this JSON-lines file")
	compare := flag.String("compare", "", "old,new: compare two JSON-lines result files written by -repeat -out, metric by metric, against BENCHMARK.json's bounds")
	benchJSON := flag.String("benchmark-json", "BENCHMARK.json", "with -compare: the bounds file")
	flag.Parse()
	// The benchmark's own collector should rarely run during a timed
	// request; its heap is inputs and samples, a few hundred MB at most.
	debug.SetGCPercent(400)
	// Interrupted, stop every server started before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fatalf("interrupted by %v", sig)
	}()

	if *compare != "" {
		files := strings.Split(*compare, ",")
		if len(files) != 2 {
			fatalf("-compare wants old,new")
		}
		if err := compareMode(os.Stdout, files[0], files[1], *benchJSON); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloads[*workloadName]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadOrder, ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if _, err := os.Stat(*serveBin); err != nil {
		fatalf("cws-serve binary: %v", err)
	}
	if *repeat > 0 {
		if err := repeatMode(os.Stdout, w, *seed, *seconds, *trace == 1, *serveBin, *repeat, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}
	st, res, err := runOnce(w, *seed, *seconds, *trace == 1, *serveBin)
	if err != nil {
		fatalf("%v", err)
	}
	printRun(os.Stdout, st, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	killLive()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// printRun prints a run's stamp and sample counts, then its result as the
// last line.
func printRun(w io.Writer, st *stamp, res *result) {
	js, _ := json.Marshal(st)
	fmt.Fprintf(w, "# stamp %s\n", js)
	names := make([]string, 0, len(st.Samples))
	for n := range st.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# samples %-22s %d\n", n, st.Samples[n])
	}
	js, _ = json.Marshal(res)
	fmt.Fprintf(w, "%s\n", js)
}

// trials is how many independent trials one run makes. Each sets the
// workload up afresh (new server processes, new data directories), is
// timed for an equal share of the run and checked on its own. Pooling the
// trials' samples damps what one server process's lifetime adds to the
// run-to-run spread (one process's garbage collections, for one, fall at
// the same point of every round it serves), and the set-up is measured
// once per trial.
const trials = 6

// trialOut is one trial's samples and measurements.
type trialOut struct {
	ingest, freeze, query []sample
	setup, rssMB          float64
	diskBytes             int64
}

// runOnce runs the workload's trials, checks each trial's final state,
// and (with trace) replays the inputs in-process for the per-layer
// metrics.
func runOnce(w *workload, seed uint64, seconds float64, trace bool, bin string) (*stamp, *result, error) {
	runDir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	st := &stamp{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: sourceVersion(),
		Samples: map[string]int{"setup_s": trials},
	}
	// A workload with history has it built once per run, by a first
	// process; every trial's set-up copies and recovers it.
	history := ""
	if w.history > 0 {
		history = filepath.Join(runDir, "history")
		if err := buildHistory(w, seed, bin, history); err != nil {
			return nil, nil, err
		}
	}
	var outs []*trialOut
	var e *env
	var stealTicks, totalTicks uint64
	defer func() {
		if e != nil {
			e.stopServers()
		}
	}()
	for t := 0; t < trials; t++ {
		if e != nil {
			if err := e.stopServers(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(e.dir)
		}
		start := time.Now()
		var err error
		if e, err = setup(w, seed, bin, filepath.Join(runDir, fmt.Sprintf("trial%d", t)), history); err != nil {
			return nil, nil, err
		}
		timedStart := time.Now()
		steal0, total0, ok0 := cpuTicks()
		deadline := timedStart.Add(time.Duration(seconds / trials * float64(time.Second)))
		if w.peers == 1 && w.history == 0 {
			e.runStream(deadline)
		} else {
			e.runRounds(deadline)
		}
		if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 {
			stealTicks += steal1 - steal0
			totalTicks += total1 - total0
		}
		finishStart := time.Now()
		// The exact aggregates are checked once per run, on the last
		// trial: on the cluster each final query costs a full scatter.
		e.finish(e.epoch, t == trials-1)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trial %d: set-up %.2fs, timed phase %.2fs, final checks %.2fs, %s\n",
			w.name, seed, t, timedStart.Sub(start).Seconds(), finishStart.Sub(timedStart).Seconds(), time.Since(finishStart).Seconds(), e.describe())

		rss := 0.0
		for _, p := range e.srv {
			mb, err := p.peakRSSMB()
			if err != nil {
				return nil, nil, err
			}
			rss += mb
		}
		to := &trialOut{}
		for _, r := range e.rec {
			to.ingest = append(to.ingest, r.ingest...)
			to.freeze = append(to.freeze, r.freeze...)
			to.query = append(to.query, r.query...)
		}
		to.setup, to.rssMB, to.diskBytes = timedStart.Sub(start).Seconds(), rss, e.diskBytes
		outs = append(outs, to)

		res.Correct = res.Correct && len(e.problems) == 0
		res.Attempted += len(to.ingest) + len(to.freeze) + len(to.query) + e.failed
		res.Failed += e.failed
		st.Rounds += e.round
		st.ColdShare = coldShare(e.mix)
		if w.peers > 1 {
			st.ColdShare = 1 // the router keeps no memo
		}
		st.MaxZ = max(st.MaxZ, e.maxZ)
		st.Samples["ingest_req"] += len(to.ingest)
		st.Samples["freeze_ack"] += len(to.freeze)
		st.Samples["query"] += len(to.query)
		if w.peers > 1 {
			if st.PeerRPC == nil {
				st.PeerRPC = map[string]float64{}
			}
			st.PeerRPC["retries"] += e.rpc.retries
			st.PeerRPC["hedges"] += e.rpc.hedges
		}
		for _, p := range e.problems {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
		}
	}
	st.StealShare = -1
	if totalTicks > 0 {
		st.StealShare = float64(stealTicks) / float64(totalTicks)
	}
	for _, p := range e.srv {
		st.Servers = append(st.Servers, serverStamp{Flags: p.args, GOMAXPROCS: serverProcs(), IngestMode: ingestMode()})
	}
	if st.PeerRPC != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peer RPC retries=%v hedges=%v\n", st.PeerRPC["retries"], st.PeerRPC["hedges"])
	}
	samplesPath := filepath.Join(".bench_build", "samples", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSamples(samplesPath, outs); err != nil {
		return nil, nil, err
	}
	e2e := endToEnd(outs)
	if !trace {
		res.Metrics = e2e
		return st, res, nil
	}
	layers, admit, err := traceRun(e, e2e, runDir)
	if err != nil {
		return nil, nil, err
	}
	st.AdmitShare = admit
	res.Metrics = layers
	return st, res, nil
}

// endToEnd computes the end-to-end metrics from the trials' exact samples:
// percentiles over all trials' samples, rates over all trials' work and
// busy time, and the median trial's set-up time, peak RSS and disk bytes.
func endToEnd(outs []*trialOut) map[string]metric {
	var im, fm, qm, setups, rss, disk []float64
	offers, queries := 0, 0
	var ingestBusy, queryBusy time.Duration
	for _, to := range outs {
		var iv, qv []interval
		for _, s := range to.ingest {
			im, iv = append(im, s.ms()), append(iv, s.iv)
			offers += s.offers
		}
		for _, s := range to.freeze {
			fm = append(fm, s.ms())
		}
		for _, s := range to.query {
			qm, qv = append(qm, s.ms()), append(qv, s.iv)
		}
		queries += len(to.query)
		ingestBusy += busyTime(iv)
		queryBusy += busyTime(qv)
		setups = append(setups, to.setup)
		rss = append(rss, to.rssMB)
		disk = append(disk, float64(to.diskBytes)/(1<<20))
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"ingest_offers_per_s": {float64(offers) / ingestBusy.Seconds(), "offers/s"},
		"ingest_req_p50_ms":   {percentile(im, 50), "ms"},
		"ingest_req_p90_ms":   {percentile(im, 90), "ms"},
		"freeze_ack_p50_ms":   {percentile(fm, 50), "ms"},
		"query_per_s":         {float64(queries) / queryBusy.Seconds(), "queries/s"},
		"query_p50_ms":        {percentile(qm, 50), "ms"},
		"query_p90_ms":        {percentile(qm, 90), "ms"},
		"server_rss_peak_mb":  {median(rss), "MB"},
		"store_disk_mb":       {median(disk), "MB"},
	}
}

// serverProcs is the GOMAXPROCS a cws-serve process started by this
// benchmark runs with.
func serverProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ingestMode names the hand-off mode shard.NewSketcherLanes selects for
// the servers' settings: direct only with one lane, one worker and one
// schedulable core; the servers run with -lanes 0 and -workers 0
// (GOMAXPROCS each, workers capped at the shard count).
func ingestMode() string {
	procs := serverProcs()
	lanes, workers := procs, min(procs, serverShards)
	if lanes == 1 && workers == 1 && procs == 1 {
		return "direct"
	}
	return "handoff"
}

// sourceVersion identifies the code under test: the git commit when the
// checkout is a repository, else a digest of the Go sources and go.mod
// files under the working directory.
func sourceVersion() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeSamples saves every timed operation (trial, kind, query, start
// offset from the trial's first operation, latency) as JSON lines, so a
// percentile can be traced back to the requests behind it.
func writeSamples(path string, outs []*trialOut) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for t, to := range outs {
		var t0 time.Time
		for _, ss := range [][]sample{to.ingest, to.freeze, to.query} {
			for _, s := range ss {
				if t0.IsZero() || s.iv.start.Before(t0) {
					t0 = s.iv.start
				}
			}
		}
		for kind, ss := range map[string][]sample{"ingest": to.ingest, "freeze": to.freeze, "query": to.query} {
			for _, s := range ss {
				rec := struct {
					Trial   int     `json:"trial"`
					Op      string  `json:"op"`
					Label   string  `json:"label,omitempty"`
					StartMs float64 `json:"start_ms"`
					Ms      float64 `json:"ms"`
				}{t, kind, s.label, float64(s.iv.start.Sub(t0)) / 1e6, s.ms()}
				if err := enc.Encode(rec); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	return f.Close()
}
