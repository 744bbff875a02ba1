package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name        string
		head        []float64
		lowerBetter bool
		want        string
	}{
		{"within bound", []float64{104, 105, 103, 104, 104}, true, unchanged},
		{"slower", []float64{115, 116, 114, 115, 115}, true, regressed},
		{"faster", []float64{85, 86, 84, 85, 85}, true, improved},
		{"higher is better and it fell", []float64{85, 86, 84, 85, 85}, false, regressed},
		{"too noisy", []float64{80, 120, 95, 140, 60}, true, unresolved},
		{"noisy but every run better", []float64{50, 70, 60, 90, 55}, true, improved},
	}
	for _, c := range cases {
		if got := judge(steady, c.head, c.lowerBetter, 0.10).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsResultFilesAndBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCHMARK.json", map[string]any{"end_to_end": []boundDef{
		{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}})
	run := func(p50, ops float64, trace bool) resultsFile {
		return resultsFile{Runs: []workloadRun{{Workload: "killchain", Trace: trace, Metrics: map[string]metric{
			"op_ms_p50": {Value: p50, Unit: "ms"}, "ops_per_s": {Value: ops, Unit: "1/s"},
		}}}}
	}
	for i, v := range []float64{2.0, 2.02, 1.98} {
		write("base-"+string(rune('a'+i))+".json", run(v, 500, false))
		write("head-"+string(rune('a'+i))+".json", run(v*1.3, 500, false))
	}
	write("head-traced.json", run(99, 1, true)) // traced runs are ignored
	var out bytes.Buffer
	err := compare(&out, filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "base-*.json"), filepath.Join(dir, "head-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[1], "killchain  op_ms_p50") || !strings.HasSuffix(lines[1], regressed) {
		t.Errorf("row %q: want killchain op_ms_p50 regressed", lines[1])
	}
	if !strings.HasSuffix(lines[2], unchanged) {
		t.Errorf("row %q: want ops_per_s unchanged", lines[2])
	}
}
