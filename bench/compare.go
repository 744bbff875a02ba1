package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// boundsFile is the part of BENCHMARK.json that -compare reads.
type boundsFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// boundDef is one end-to-end metric's direction and regression bound:
// the share of the base median by which it may worsen.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of a comparison row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judgement compares one (workload, metric) pair across two sets of runs.
type judgement struct {
	baseMedian, headMedian float64
	worse                  float64 // relative change of the median, positive = worse
	spread                 float64 // the wider side's quartile distance ÷ median
	verdict                string
}

// judge applies a bound. A change beyond the bound in either direction
// is a regression or an improvement; within it, the metric is unchanged.
// When either side's run-to-run spread exceeds the bound the difference
// cannot be resolved — unless every head run beats every base run.
func judge(base, head []float64, lowerBetter bool, bound float64) judgement {
	_, mb, _ := quartiles(base)
	_, mh, _ := quartiles(head)
	j := judgement{baseMedian: mb, headMedian: mh, spread: max(relSpread(base), relSpread(head))}
	if mb != 0 {
		j.worse = (mh - mb) / mb
	}
	if !lowerBetter {
		j.worse = -j.worse
	}
	switch {
	case j.spread > bound && allBetter(base, head, lowerBetter):
		j.verdict = improved
	case j.spread > bound:
		j.verdict = unresolved
	case j.worse > bound:
		j.verdict = regressed
	case j.worse < -bound:
		j.verdict = improved
	default:
		j.verdict = unchanged
	}
	return j
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, lowerBetter bool) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	bLo, bHi := minMax(base)
	hLo, hHi := minMax(head)
	if lowerBetter {
		return hHi < bLo
	}
	return hLo > bHi
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// quartiles returns Q1, the median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), whose Q2 is the median.
// A single value is all three quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// relSpread is the distance between the first and third quartiles as a
// share of the median.
func relSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// loadRuns reads every -out file a glob matches and groups the values of
// untraced runs by workload and metric.
func loadRuns(pattern string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compare prints one row per (workload, end-to-end metric) judging the
// head runs against the base runs with BENCHMARK.json's bounds.
func compare(w io.Writer, boundsPath, basePattern, headPattern string) error {
	b, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf boundsFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	base, err := loadRuns(basePattern)
	if err != nil {
		return err
	}
	head, err := loadRuns(headPattern)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-17s %5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "base p50", "head p50", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range bf.EndToEnd {
			bv, hv := base[wl.name][d.Name], head[wl.name][d.Name]
			if len(bv) == 0 && len(hv) == 0 {
				continue
			}
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(w, "%-10s %-17s missing on one side\n", wl.name, d.Name)
				continue
			}
			j := judge(bv, hv, d.Better == "lower", d.Bound)
			fmt.Fprintf(w, "%-10s %-17s %2d/%-2d %12.4g %12.4g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, len(bv), len(hv), j.baseMedian, j.headMedian,
				100*j.worse, 100*j.spread, 100*d.Bound, j.verdict)
		}
	}
	return nil
}
