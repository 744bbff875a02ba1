// Command bench is the repository benchmark: four closed-loop workloads
// that drive the simulator through its public packages and measure it
// end to end, or layer by layer in a traced run.
//
//   - paper regenerates every deterministic artifact per op;
//   - killchain runs single-victim kill chains, a quarter of them over a
//     lossy link;
//   - fleet builds and drains a 10⁵-bot fleet on the sharded fabric;
//   - labd serves artifact runs from a real daemon over loopback HTTP.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload killchain --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload paper,fleet --out results.json
//	bash bench/run.sh --workload labd --trace 1 --spans spans.json
//	bash bench/run.sh -compare 'base/*.json' 'head/*.json'
//
// Each workload sets up nine times (setup_s is the median), then runs
// its closed loop for a fixed number of ops — --seconds times the
// workload's frozen rate — and checks every op's output. It prints
// a table, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics of BENCHMARK.json, or with
// --trace 1 its per-layer metrics. The line of the last workload is the
// last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name    string
	clients int
	// rate is the workload's ops per second on the reference machine
	// (README.md), frozen: a run of --seconds s measures round(s × rate)
	// ops, so both sides of a comparison do identical work.
	rate  float64
	setup func(config) (instance, error)
	// layerDefs lists the per-layer metrics its traced run reports.
	layerDefs func() []metricDef
}

var workloads = []workload{
	{name: "paper", clients: 1, rate: 7, setup: setupPaper, layerDefs: paperLayers},
	{name: "killchain", clients: 1, rate: 450, setup: setupKillchain, layerDefs: killchainLayers},
	{name: "fleet", clients: 1, rate: 1.6, setup: setupFleet, layerDefs: fleetLayers},
	{name: "labd", clients: workers, rate: 900, setup: setupLabd, layerDefs: labdLayers},
}

// deadlineFactor bounds a measured phase at this many times --seconds,
// so a much slower commit still finishes in bounded time; it then
// reports the ops it completed.
const deadlineFactor = 3

// setups is how many times a run sets a workload up; setup_s is their
// median.
const setups = 9

// overheadMetric is the traced run's op_ms_p50 over the untraced one's,
// measured in the same process.
var overheadMetric = metricDef{"trace.overhead_ratio", "ratio"}

// perLayer lists every per-layer metric in BENCHMARK.json order. A
// traced run reports all of them; a metric of a layer its workload does
// not drive reads 0.
func perLayer() []metricDef {
	seen := make(map[string]bool)
	var defs []metricDef
	for _, w := range workloads {
		for _, d := range w.layerDefs() {
			if !seen[d.name] {
				seen[d.name] = true
				defs = append(defs, d)
			}
		}
	}
	return append(defs, overheadMetric)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "paper,killchain,fleet,labd", "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "workload seed: every op's inputs derive from it")
	seconds := fs.Float64("seconds", 10, "run length: each workload measures seconds × its frozen ops/s rate ops")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	out := fs.String("out", "", "also write full results (sample counts, p90, failed_ratio, environment) to this JSON file")
	spans := fs.String("spans", "", "with --trace 1, write every span and the span summary to this JSON file")
	cmp := fs.Bool("compare", false, "compare two sets of --out files: -compare BASE_GLOB HEAD_GLOB")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare, the file defining each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result-file globs")
		}
		return compare(stdout, *bounds, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(workers)
	cfg := config{
		seed:     *seed,
		duration: time.Duration(deadlineFactor * *seconds * float64(time.Second)),
		setups:   setups,
		trace:    *trace == 1,
		sizes:    fullSizes,
	}
	results := resultsFile{Env: environment(*seconds)}
	var sf spanFile
	for _, w := range selected {
		cfg.ops = max(1, int(math.Round(*seconds*w.rate)))
		r, tr, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results.Runs = append(results.Runs, r)
		defs := append(append([]metricDef(nil), endToEnd...), metricDef{"op_ms_p90", "ms"}, metricDef{"failed_ratio", "ratio"})
		if tr != nil {
			printSpans(stdout, tr)
			sf.Workloads = append(sf.Workloads, workloadSpans{Workload: w.name, Summary: tr.sortedSummary(), Spans: tr.spans})
			defs = append(w.layerDefs(), overheadMetric)
		}
		if err := printRun(stdout, r, defs); err != nil {
			return err
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *spans != "" && cfg.trace {
		return writeSpans(*spans, sf)
	}
	return nil
}

// selectWorkloads resolves a comma-separated workload list.
func selectWorkloads(names string) ([]workload, error) {
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == strings.TrimSpace(name) {
				out, found = append(out, w), true
			}
		}
		if !found {
			var known []string
			for _, w := range workloads {
				known = append(known, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// runWorkload sets the workload up cfg.setups times, keeping the last
// instance, and measures it. A traced run measures half its ops
// untraced and half traced, and reports the traced op_ms_p50 over the
// untraced one as the tracing overhead.
func runWorkload(w workload, cfg config) (r workloadRun, tr *tracer, err error) {
	var inst instance
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return r, nil, fmt.Errorf("close: %w", err)
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(cfg); err != nil {
			return r, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	r = workloadRun{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace}
	var phases []phase
	if !cfg.trace {
		ph := measure(w.name, inst, w.clients, cfg, nil)
		phases = append(phases, ph)
		r.Metrics = ph.endToEnd(setupTimes)
	} else {
		half := cfg
		half.ops = max(1, cfg.ops/2)
		half.duration /= 2
		base := measure(w.name, inst, w.clients, half, nil)
		tr = newTracer(w.clients == 1)
		traced := measure(w.name, inst, w.clients, half, tr)
		phases = append(phases, base, traced)
		got := inst.layers(tr)
		overhead := metric{0, overheadMetric.unit, len(traced.samples)}
		if p50 := percentile(base.samples, 0.5); p50 > 0 {
			overhead.Value = percentile(traced.samples, 0.5) / p50
		}
		got[overheadMetric.name] = overhead
		r.Metrics = make(map[string]metric)
		for _, d := range perLayer() {
			m, ok := got[d.name]
			if !ok {
				m = metric{0, d.unit, 0}
			}
			r.Metrics[d.name] = m
		}
	}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		for _, e := range ph.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, e)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r, tr, nil
}

// resultsFile is the layout of --out files, which -compare reads.
type resultsFile struct {
	Env  envInfo       `json:"env"`
	Runs []workloadRun `json:"runs"`
}

// workloadRun is one workload's result.
type workloadRun struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	GoVersion  string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LabdStore  string  `json:"labd_store"`
	Seconds    float64 `json:"seconds"`
}

func environment(seconds float64) envInfo {
	return envInfo{
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LabdStore: "in-memory chaos.FS", Seconds: seconds,
	}
}

// printRun prints the table of a workload's metrics named in defs, then
// its summary line.
func printRun(w io.Writer, r workloadRun, defs []metricDef) error {
	fmt.Fprintf(w, "== %s (seed %d, trace %v): %d ops, %d failed ==\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		}
	}
	return printSummary(w, r)
}

// summaryLine is the last line a run prints.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the one-line JSON result: the end-to-end metrics
// of an untraced run, or every per-layer metric of a traced one.
func printSummary(w io.Writer, r workloadRun) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	s := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]valueUnit)}
	for _, d := range defs {
		m := r.Metrics[d.name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.name, m.Value)
		}
		s.Metrics[d.name] = valueUnit{m.Value, d.unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSpans prints the traced run's span summary: per span name, the
// count, the p50 duration, the p50 self time and the p50 allocations.
func printSpans(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "  %-40s %8s %12s %12s %12s\n", "span", "n", "p50 ms", "self p50 ms", "allocs p50")
	for _, s := range tr.sortedSummary() {
		fmt.Fprintf(w, "  %-40s %8d %12.4f %12.4f %12.0f\n", s.Name, s.N, s.P50ms, s.SelfP50ms, s.AllocsP50)
	}
}
