package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of a traced op. Spans of one op share Op;
// Parent is the ID of the enclosing span, 0 for an op's root. Start and
// End are nanoseconds since the traced phase began. Allocs is the heap
// allocations made inside the span, recorded only by single-client
// workloads, where no other op allocates at the same time.
type Span struct {
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps a traced phase's spans in memory; they are written out
// only when the benchmark ends. A nil *tracer records nothing, so the
// untraced path costs one nil check per span.
type tracer struct {
	origin time.Time
	allocs bool

	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer(allocs bool) *tracer { return &tracer{origin: time.Now(), allocs: allocs} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t       *tracer
	s       Span
	allocs0 uint64
}

// start opens a span; end it with end.
func (t *tracer) start(op int, parent int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, s: Span{Op: op, ID: t.nextID.Add(1), Parent: parent, Name: name}}
	if t.allocs {
		o.allocs0 = readHeap().allocs
	}
	o.s.Start = time.Since(t.origin).Nanoseconds()
	return o
}

// id is the span's ID, 0 for the nil span of an untraced run.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and records it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.origin).Nanoseconds()
	if o.t.allocs {
		o.s.Allocs = readHeap().allocs - o.allocs0
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// selfTimes maps each span's ID to its self time: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's interval; overlapping children count once.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if lo, hi := max(k.Start, parent.Start), min(k.End, parent.End); lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// SpanStat summarises every span of one name.
type SpanStat struct {
	Name      string  `json:"name"`
	N         int     `json:"n"`
	P50ms     float64 `json:"p50_ms"`
	SelfP50ms float64 `json:"self_p50_ms"`
	AllocsP50 float64 `json:"allocs_p50"`
}

// summary groups the recorded spans by name.
func (t *tracer) summary() map[string]SpanStat {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type acc struct{ dur, self, allocs []float64 }
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e6)
		a.self = append(a.self, float64(self[s.ID])/1e6)
		a.allocs = append(a.allocs, float64(s.Allocs))
	}
	out := make(map[string]SpanStat, len(by))
	for name, a := range by {
		out[name] = SpanStat{
			Name: name, N: len(a.dur),
			P50ms: median(a.dur), SelfP50ms: median(a.self), AllocsP50: median(a.allocs),
		}
	}
	return out
}

// spanMs is the p50 duration of the named spans as a metric.
func spanMs(st map[string]SpanStat, name string) metric {
	s := st[name]
	return metric{s.P50ms, "ms", s.N}
}

// spanAllocs is the p50 allocation count of the named spans as a metric.
func spanAllocs(st map[string]SpanStat, name string) metric {
	s := st[name]
	return metric{s.AllocsP50, "count", s.N}
}

// spanFile is the layout of the -spans output.
type spanFile struct {
	Workloads []workloadSpans `json:"workloads"`
}

type workloadSpans struct {
	Workload string     `json:"workload"`
	Summary  []SpanStat `json:"summary"`
	Spans    []Span     `json:"spans"`
}

// sortedSummary lists the summary by span name.
func (t *tracer) sortedSummary() []SpanStat {
	st := t.summary()
	out := make([]SpanStat, 0, len(st))
	for _, s := range st {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes every traced workload's spans and span summary.
func writeSpans(path string, f spanFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
