package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestP90NeedsTenSamplesBeyondIt(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// 99 samples: p90 is 90 and only 9 samples lie beyond it.
	if m := (phase{samples: samples(99), attempted: 99, wall: time.Second}).endToEnd([]float64{1}); m["op_ms_p90"] != (metric{}) {
		t.Errorf("99 samples: op_ms_p90 = %+v, want it omitted", m["op_ms_p90"])
	}
	// 100 samples: p90 is 90 with 10 beyond it.
	m := (phase{samples: samples(100), attempted: 100, wall: time.Second}).endToEnd([]float64{1})
	if got, want := m["op_ms_p90"], (metric{90, "ms", 100}); got != want {
		t.Errorf("100 samples: op_ms_p90 = %+v, want %+v", got, want)
	}
	if got := m["op_ms_p50"].Value; got != 50 {
		t.Errorf("op_ms_p50 = %v, want 50", got)
	}
	// Ties at the percentile do not count as lying beyond it.
	tied := append(make([]float64, 95), 1, 1, 1, 1, 1)
	if _, ok := tailPercentile(tied, 0.9); ok {
		t.Error("95 zeros and 5 ones: p90 reported with 5 samples beyond it")
	}
}

func TestChainInputsArePureFunctionsOfSeedAndIndex(t *testing.T) {
	for op := 0; op < 64; op++ {
		a, b := chainInputs(7, op), chainInputs(7, op)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: two derivations differ", op)
		}
		if reflect.DeepEqual(a, chainInputs(8, op)) {
			t.Fatalf("op %d: seeds 7 and 8 give the same input", op)
		}
		if a.Lossy != (op%4 == 3) {
			t.Errorf("op %d: lossy = %v", op, a.Lossy)
		}
		if n := len(a.Targets); n < 1 || n > 4 {
			t.Errorf("op %d: %d propagation targets, want 1-4", op, n)
		}
		if a.Junk < 4 || a.Junk > 32 {
			t.Errorf("op %d: %d junk objects, want 4-32", op, a.Junk)
		}
		if n := len(a.Command); n < 64 || n > 1024 {
			t.Errorf("op %d: %d command bytes, want 64-1024", op, n)
		}
		if n := len(a.Exfil); n < 256 || n > 4096 {
			t.Errorf("op %d: %d exfiltrated bytes, want 256-4096", op, n)
		}
	}
	if reflect.DeepEqual(chainInputs(7, 0), chainInputs(7, 4)) {
		t.Error("ops 0 and 4 of one seed give the same input")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a: 10-50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the root: 90-100
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5, 6: 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer(false)
	root := tr.start(3, 0, "op")
	child := tr.start(3, root.id(), "child")
	child.end()
	root.end()
	var none *tracer
	if sp := none.start(0, 0, "x"); sp != nil || sp.id() != 0 {
		t.Error("a nil tracer opened a span")
	}
	st := tr.summary()
	if st["op"].N != 1 || st["child"].N != 1 {
		t.Fatalf("summary = %+v", st)
	}
	if tr.spans[0].Parent != tr.spans[1].ID || tr.spans[0].Op != 3 {
		t.Errorf("child span %+v does not point at root %+v", tr.spans[0], tr.spans[1])
	}
}

// failingInstance fails every op whose index is in fail.
type failingInstance struct{ fail map[int]bool }

func (f failingInstance) op(c opCtx) error {
	if f.fail[c.index] {
		return errors.New("forced failure")
	}
	time.Sleep(time.Millisecond)
	return nil
}
func (failingInstance) layers(*tracer) map[string]metric { return nil }
func (failingInstance) close() error                     { return nil }

func TestFailedOpsAreCountedAndKeptOutOfLatency(t *testing.T) {
	for _, clients := range []int{1, 2} {
		inst := failingInstance{fail: map[int]bool{3: true, 7: true}}
		ph := measure("fake", inst, clients, config{ops: 20}, nil)
		if ph.attempted != 20 || ph.failed != 2 || len(ph.samples) != 18 || len(ph.errs) != 2 {
			t.Errorf("%d clients: attempted %d, failed %d, %d samples, %d errors; want 20, 2, 18, 2",
				clients, ph.attempted, ph.failed, len(ph.samples), len(ph.errs))
		}
		m := ph.endToEnd([]float64{1})
		if got := m["failed_ratio"].Value; got != 0.1 {
			t.Errorf("%d clients: failed_ratio = %v, want 0.1", clients, got)
		}
		if got := m["op_ms_p50"].N; got != 18 {
			t.Errorf("%d clients: op_ms_p50 over %d samples, want 18", clients, got)
		}
	}
}
