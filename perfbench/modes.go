package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one line of a -repeat -out file.
type record struct {
	Stamp  *stamp  `json:"stamp"`
	Result *result `json:"result"`
}

// repeatMode runs workload wl n times, with seeds seed..seed+n-1, prints
// every run, then each metric's median, quartiles and max/min ratio, and
// appends the runs to out when set.
func repeatMode(w io.Writer, wl *workload, seed uint64, seconds float64, trace bool, bin string, n int, out string) error {
	var recs []record
	for i := 0; i < n; i++ {
		st, res, err := runOnce(wl, seed+uint64(i), seconds, trace, bin)
		if err != nil {
			return err
		}
		printRun(w, st, res)
		recs = append(recs, record{st, res})
		if out != "" {
			if err := appendRecord(out, record{st, res}); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "# %s: %d runs of %gs\n", wl.name, n, seconds)
	fmt.Fprintf(w, "# %-36s %-10s %14s %14s %14s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "max/min")
	for _, name := range metricNames(recs) {
		vals, unit := values(recs, name)
		q1, med, q3 := quartiles(vals)
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "# %-36s %-10s %14.6g %14.6g %14.6g %8.4f %8.4f\n", name, unit, q1, med, q3, (q3-q1)/math.Abs(med), hi/lo)
	}
	for _, r := range recs {
		if !r.Result.Correct {
			return fmt.Errorf("seed %d failed its checks", r.Stamp.Seed)
		}
	}
	return nil
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Stamp == nil || r.Result == nil {
			return nil, fmt.Errorf("%s: a line without stamp and result", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func metricNames(recs []record) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		for name := range r.Result.Metrics {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(recs []record, name string) ([]float64, string) {
	var vals []float64
	unit := ""
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			vals = append(vals, m.Value)
			unit = m.Unit
		}
	}
	return vals, unit
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMode compares two result sets workload by workload: each metric's
// median change, signed so that positive is worse, against its bound. A
// metric whose run-to-run spread (quartile distance over median) on either
// side exceeds its bound is unresolved, unless every new run beats every
// old one.
func compareMode(w io.Writer, oldPath, newPath, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	better := map[string]string{}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	byWorkload := func(recs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range recs {
			out[r.Stamp.Workload] = append(out[r.Stamp.Workload], r)
		}
		return out
	}
	ow, nw := byWorkload(olds), byWorkload(news)
	regressed := false
	for _, wl := range workloadOrder {
		o, n := ow[wl], nw[wl]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d old runs, %d new runs\n", wl, len(o), len(n))
		fmt.Fprintf(w, "  %-36s %14s %14s %9s %7s %9s %9s  %s\n", "metric", "old median", "new median", "worse by", "bound", "old iqr", "new iqr", "verdict")
		for _, name := range metricNames(append(append([]record{}, o...), n...)) {
			ov, _ := values(o, name)
			nv, _ := values(n, name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			sign := 1.0
			if better[name] == "higher" {
				sign = -1
			}
			worse := sign * (nm - om) / math.Abs(om)
			oSpread, nSpread := (oq3-oq1)/math.Abs(om), (nq3-nq1)/math.Abs(nm)
			b, hasBound := bound[name]
			verdict := "-"
			if hasBound {
				oLo, oHi := minMax(ov)
				nLo, nHi := minMax(nv)
				allBetter := (sign > 0 && nHi < oLo) || (sign < 0 && nLo > oHi)
				switch {
				case allBetter:
					verdict = "better in every run"
				case oSpread > b || nSpread > b:
					verdict = "unresolved (spread wider than bound)"
				case worse > b:
					verdict = "REGRESSED"
					regressed = true
				default:
					verdict = "within bound"
				}
			}
			bs := "-"
			if hasBound {
				bs = fmt.Sprintf("%.3f", b)
			}
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %+9.4f %7s %9.4f %9.4f  %s\n", name, om, nm, worse, bs, oSpread, nSpread, verdict)
		}
	}
	if regressed {
		return fmt.Errorf("at least one end-to-end metric regressed beyond its bound")
	}
	return nil
}
