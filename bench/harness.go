package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the width of every pool the benchmark drives: the runner
// pool, the fabric's shard workers, labd's fleets and its clients. It is
// fixed, and GOMAXPROCS with it, so results do not depend on the host's
// core count.
const workers = 2

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p90 over 30 samples rests on three of them.
const minTail = 10

// metric is one reported number. N is the count of samples behind a
// percentile, median or mean; it is written to -out files and the
// human-readable table, not to the summary line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in the order
// BENCHMARK.json declares them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb_p90", "MB"},
}

// sizes fixes the work a workload does in set-up and per op. Every run
// of the benchmark uses fullSizes; tests shrink them.
type sizes struct {
	paperWarmup, chainWarmup, fleetWarmup, labdWarmup int
	fleetLANs, fleetBots                              int
}

var fullSizes = sizes{
	paperWarmup: 2, chainWarmup: 128, fleetWarmup: 1, labdWarmup: 64,
	fleetLANs: 64, fleetBots: 1563,
}

// config is one benchmark invocation's settings.
type config struct {
	seed     int64
	ops      int           // ops in the measured phase
	duration time.Duration // when positive, the measured phase also ends after this long
	setups   int           // set-ups per run; setup_s is their median
	trace    bool
	sizes    sizes
}

// opCtx is what one operation receives from the closed loop.
type opCtx struct {
	index  int     // op index: the key the workload derives its inputs from
	client int     // which closed-loop client runs the op
	tr     *tracer // nil on untraced runs
	root   int64   // span ID of the op's root span, 0 when untraced
}

// span opens a child span of the op's root span.
func (c opCtx) span(name string) *openSpan { return c.tr.start(c.index, c.root, name) }

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs one operation and checks its output; a non-nil error
	// counts the op as failed. Workloads with several clients get
	// concurrent calls.
	op(c opCtx) error
	// layers reports the per-layer metrics of the traced phase.
	layers(tr *tracer) map[string]metric
	// close releases everything set-up acquired.
	close() error
}

// phase is what one measured phase observed.
type phase struct {
	samples    []float64 // latency of each successful op, ms
	attempted  int
	failed     int
	errs       []error // the first few failures, for the log
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	// liveHeap holds, per op, the heap the last GC found live.
	liveHeap []float64
}

// maxLoggedErrors bounds how many failures a phase keeps for the log.
const maxLoggedErrors = 5

// measure runs the closed loop: each of clients goroutines starts its
// next op only after its previous one returned, until cfg.ops ops have
// started or cfg.duration (when positive) has passed.
func measure(name string, inst instance, clients int, cfg config, tr *tracer) phase {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		ph       phase
		wg       sync.WaitGroup
		deadline = time.Now().Add(cfg.duration)
	)
	opName := name + ".op"
	cpu0, heap0 := cpuTime(), readHeap()
	start := time.Now()
	wg.Add(clients)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			defer wg.Done()
			var samples, live []float64
			var failed int
			var errs []error
			liveHeap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.ops || cfg.duration > 0 && !time.Now().Before(deadline) {
					break
				}
				t0 := time.Now()
				root := tr.start(i, 0, opName)
				err := inst.op(opCtx{index: i, client: cl, tr: tr, root: root.id()})
				root.end()
				d := time.Since(t0)
				if err != nil {
					failed++
					if len(errs) < maxLoggedErrors {
						errs = append(errs, fmt.Errorf("op %d: %w", i, err))
					}
				} else {
					samples = append(samples, msOf(d))
				}
				metrics.Read(liveHeap)
				live = append(live, float64(liveHeap[0].Value.Uint64()))
			}
			mu.Lock()
			defer mu.Unlock()
			ph.samples = append(ph.samples, samples...)
			ph.liveHeap = append(ph.liveHeap, live...)
			ph.attempted += len(samples) + failed
			ph.failed += failed
			if room := maxLoggedErrors - len(ph.errs); room > 0 {
				ph.errs = append(ph.errs, errs[:min(room, len(errs))]...)
			}
		}(cl)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	heap1 := readHeap()
	ph.cpu = cpuTime() - cpu0
	ph.allocs = heap1.allocs - heap0.allocs
	ph.allocBytes = heap1.bytes - heap0.bytes
	sort.Float64s(ph.samples)
	sort.Float64s(ph.liveHeap)
	return ph
}

// endToEnd summarises an untraced phase plus the run's set-up times.
// The end-to-end metrics come first; op_ms_p90 (when enough samples lie
// beyond it) and failed_ratio follow for the -out file and the table.
func (p phase) endToEnd(setups []float64) map[string]metric {
	per := float64(max(p.attempted, 1))
	setupSorted := append([]float64(nil), setups...)
	sort.Float64s(setupSorted)
	m := map[string]metric{
		"setup_s":          {percentile(setupSorted, 0.5), "s", len(setups)},
		"ops_per_s":        {float64(len(p.samples)) / p.wall.Seconds(), "1/s", len(p.samples)},
		"op_ms_p50":        {percentile(p.samples, 0.5), "ms", len(p.samples)},
		"cpu_ms_per_op":    {float64(p.cpu) / float64(time.Millisecond) / per, "ms", p.attempted},
		"allocs_per_op":    {float64(p.allocs) / per, "count", p.attempted},
		"alloc_kb_per_op":  {float64(p.allocBytes) / 1024 / per, "KiB", p.attempted},
		"heap_live_mb_p90": {percentile(p.liveHeap, 0.9) / 1e6, "MB", len(p.liveHeap)},
		"failed_ratio":     {float64(p.failed) / per, "ratio", p.attempted},
	}
	if v, ok := tailPercentile(p.samples, 0.9); ok {
		m["op_ms_p90"] = metric{v, "ms", len(p.samples)}
	}
	return m
}

// percentile returns the nearest-rank p-quantile of sorted values, 0
// for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// tailPercentile returns the p-quantile of sorted values and whether at
// least minTail samples lie beyond it, the condition for reporting it.
func tailPercentile(sorted []float64, p float64) (float64, bool) {
	v := percentile(sorted, p)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return v, beyond >= minTail
}

// median returns the median of unsorted values, 0 for none.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// mean returns the arithmetic mean, 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "bench: getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters are the runtime's cumulative allocation counters.
type heapCounters struct{ allocs, bytes uint64 }

// readHeap reads the cumulative allocation counters, as testing's
// -benchmem does. It stops the world briefly, but unlike runtime/metrics
// it flushes the per-P caches, so a short span's count is exact.
func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// efficiency is cpu ÷ (wall × workers): 1 when every worker was busy
// for the whole interval.
func efficiency(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(cpu) / (float64(wall) * workers)
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
