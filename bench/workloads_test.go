package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/runner"
)

// smokeSizes shrink set-up to the minimum that still warms every path.
var smokeSizes = sizes{chainWarmup: 2, labdWarmup: 2, fleetLANs: 2, fleetBots: 50}

// smokeOps is how many ops each workload measures in the smoke test:
// two passes, eight chains (two of them lossy), five fleets (so a seed
// repeats) and eight labd runs.
var smokeOps = map[string]int{"paper": 2, "killchain": 8, "fleet": 5, "labd": 8}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := config{seed: 5, ops: smokeOps[w.name], setups: 1, trace: trace, sizes: smokeSizes}
				r, _, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("correct %v with %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
				}
				var buf bytes.Buffer
				if err := printSummary(&buf, r); err != nil {
					t.Fatal(err)
				}
				var line summaryLine
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatalf("summary line %q: %v", buf.String(), err)
				}
				want := endToEnd
				if trace {
					want = perLayer()
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("summary metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if !trace {
					return
				}
				// Every layer metric of this workload was measured, so a
				// name the workload reports under matches its declaration.
				for _, d := range w.layerDefs() {
					if r.Metrics[d.name].N == 0 {
						t.Errorf("layer metric %s has no samples", d.name)
					}
				}
				if w.name == "killchain" && r.Metrics["netsim.frames_unreleased"].Value != 0 {
					t.Errorf("netsim.frames_unreleased = %v", r.Metrics["netsim.frames_unreleased"].Value)
				}
			})
		}
	}
}

// TestSmallSpecsMatchExpectedManifest re-renders the cheap artifacts, so
// a change to their bytes fails here, not only as failed benchmark ops.
func TestSmallSpecsMatchExpectedManifest(t *testing.T) {
	want, err := expectedFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(paperSpecs()) {
		t.Errorf("expected manifest has %d artifacts, the registry %d deterministic ones", len(want), len(paperSpecs()))
	}
	renderer, err := artifact.RendererFor("json")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range labdSpecs {
		spec, ok := artifact.Get(id)
		if !ok {
			t.Fatalf("no spec %s", id)
		}
		_, rendered, err := artifact.RunRendered(spec, runner.New(workers), paperParams, renderer)
		if err != nil {
			t.Fatal(err)
		}
		if got := artifact.Fingerprint(rendered); got != want[id] {
			t.Errorf("%s renders to sha256 %s, expected manifest says %s", id, got, want[id])
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with what the benchmark reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []boundDef `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range bf.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", gotW, wantW)
	}
	var got, want []metricDef
	for _, m := range bf.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEnd)
	}
	got = nil
	for _, m := range bf.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	want = perLayer()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, want)
	}
}

// fsScript drives one filesystem through every chaos.FS call, an atomic
// commit included, and returns a transcript of what each call returned.
func fsScript(fsys chaos.FS, root string) []string {
	p := func(name string) string { return filepath.Join(root, name) }
	var log []string
	note := func(op string, err error) {
		switch {
		case err == nil:
			log = append(log, op+": ok")
		case errors.Is(err, fs.ErrNotExist):
			log = append(log, op+": not exist")
		default:
			log = append(log, op+": "+err.Error())
		}
	}
	note("mkdir", fsys.MkdirAll(p("store"), 0o755))
	note("write", fsys.WriteFile(p("store/a.json.tmp"), []byte("record"), 0o644))
	note("sync", fsys.Sync(p("store/a.json.tmp")))
	note("rename", fsys.Rename(p("store/a.json.tmp"), p("store/a.json")))
	note("syncdir", fsys.SyncDir(p("store")))
	note("write", fsys.WriteFile(p("store/b.out"), []byte("artifact"), 0o644))
	b, err := fsys.ReadFile(p("store/a.json"))
	note("read "+string(b), err)
	_, err = fsys.ReadFile(p("store/a.json.tmp"))
	note("read renamed-away", err)
	entries, err := fsys.ReadDir(p("store"))
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	note("readdir "+strings.Join(names, ","), err)
	note("remove", fsys.Remove(p("store/b.out")))
	note("remove again", fsys.Remove(p("store/b.out")))
	note("sync missing", fsys.Sync(p("store/b.out")))
	note("rename missing", fsys.Rename(p("store/b.out"), p("store/c.out")))
	return log
}

func TestTimingFSDelegatesToChaosOS(t *testing.T) {
	direct := fsScript(chaos.OS, t.TempDir())
	tfs := &timingFS{inner: chaos.OS}
	if wrapped := fsScript(tfs, t.TempDir()); !reflect.DeepEqual(wrapped, direct) {
		t.Errorf("through timingFS:\n%q\ndirect on chaos.OS:\n%q", wrapped, direct)
	}
	if tfs.writes.n.Load() != 2 || tfs.syncs.n.Load() != 2 || tfs.syncDirs.n.Load() != 1 || tfs.renames.n.Load() != 2 {
		t.Errorf("counted %d writes, %d syncs, %d dir syncs, %d renames; want 2, 2, 1, 2",
			tfs.writes.n.Load(), tfs.syncs.n.Load(), tfs.syncDirs.n.Load(), tfs.renames.n.Load())
	}
	if got := tfs.bytes.Load(); got != int64(len("record")+len("artifact")) {
		t.Errorf("counted %d bytes written", got)
	}
	// The in-memory store the labd workload uses answers the same way.
	if mem := fsScript(&memFS{m: fstest.MapFS{}}, ""); !reflect.DeepEqual(mem, direct) {
		t.Errorf("memFS:\n%q\nchaos.OS:\n%q", mem, direct)
	}
}
