package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"masterparasite/internal/artifact"
)

// deterministicRun selects every deterministic artifact (all but the
// wall-clock cnc measurement) in registration order, at sizes small
// enough for the race-detector CI run.
func deterministicRun() []string {
	var ids []string
	for _, spec := range artifact.Deterministic() {
		ids = append(ids, spec.ID)
	}
	return []string{"-run", strings.Join(ids, ","), "-sites", "400", "-days", "20"}
}

// TestGoldenTextOutput holds the `-format text` output of every
// deterministic artifact to testdata/golden-all.txt. Its first nine
// sections (Tables I–V, Figs. 3 and 5, flows, countermeasures) were
// captured from the pre-registry CLI and the last four (replay,
// conditions and the two fleet artifacts) from the registry CLI; Fig.
// 3's table has since printed its last day once, and its anchors the
// day each was measured on. It runs in every tier, -short included:
// the JSON byte gate (TestArtifactBytesMatchGolden) cannot see this
// output, since a Result's Text is not part of its JSON.
func TestGoldenTextOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(append([]string{"-format", "text"}, deterministicRun()...), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("text output diverged from the pre-registry golden\ngot %d bytes, want %d\nfirst 400 got:\n%.400s\nfirst 400 want:\n%.400s",
			out.Len(), len(want), out.Bytes(), want)
	}
}

// TestRunValidatesIDsUpFront asserts no artifact runs when any
// requested ID is invalid: bad lists fail fast with nothing written.
func TestRunValidatesIDsUpFront(t *testing.T) {
	for _, expr := range []string{"table1,,table2", "table1,table1", "table1,nope", ","} {
		var out bytes.Buffer
		err := run([]string{"-run", expr}, &out)
		if err == nil {
			t.Errorf("expr %q accepted", expr)
			continue
		}
		if out.Len() != 0 {
			t.Errorf("expr %q produced output before failing:\n%.200s", expr, out.String())
		}
	}
}

func TestListPrintsRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range artifact.IDs() {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("listing misses %s:\n%s", id, out.String())
		}
	}
}

// TestListDocumentsParallelSemantics pins the -list epilogue: the
// worker-flag documentation (scenario jobs vs. netsim shard workers)
// must be part of the CLI's own output, not only the docs.
func TestListDocumentsParallelSemantics(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-parallel", "shard workers", "byte-identically", "docs/SCALING.md"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing does not document %q:\n%s", want, out.String())
		}
	}
}

// TestOutDirNestsSlashScopedIDs runs a fleet artifact into -out: the
// slash in fleet/infection-curve must become a subdirectory, and the
// manifest fingerprint must cover the nested file.
func TestOutDirNestsSlashScopedIDs(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-run", "fleet/infection-curve", "-lans", "3", "-bots", "40",
		"-format", "json", "-out", dir}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(filepath.Join(dir, "fleet", "infection-curve.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := artifact.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Artifacts) != 1 || m.Artifacts[0].ID != "fleet/infection-curve" {
		t.Fatalf("manifest: %+v", m)
	}
	if artifact.Fingerprint(rendered) != m.Artifacts[0].SHA256 {
		t.Fatal("nested artifact file does not match its manifest fingerprint")
	}
}

// TestProfileFlagsWriteProfiles runs one small artifact with
// -cpuprofile and -memprofile: both profiles are written and non-empty,
// and stdout is byte-identical to the same run without the flags.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	args := []string{"-run", "fleet/infection-curve", "-lans", "3", "-bots", "40"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &profiled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profiled.Bytes(), plain.Bytes()) {
		t.Fatalf("profiling changed stdout:\n%.400s\nwithout the flags:\n%.400s", profiled.Bytes(), plain.Bytes())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	if err := run([]string{"-format", "yaml"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestOutDirWritesArtifactsAndManifest runs two artifacts into a
// directory and checks files, manifest entries, and that the JSON
// rendering decodes with the dataset attached.
func TestOutDirWritesArtifactsAndManifest(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-run", "table1,table4", "-format", "json", "-out", dir}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-out still wrote to stdout:\n%.200s", out.String())
	}
	for _, id := range []string{"table1", "table4"} {
		b, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			ID      string          `json:"id"`
			Title   string          `json:"title"`
			Dataset json.RawMessage `json:"dataset"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s.json: %v", id, err)
		}
		if doc.ID != id || doc.Title == "" || len(doc.Dataset) == 0 {
			t.Fatalf("%s.json incomplete: %+v", id, doc)
		}
	}
	m, err := artifact.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Artifacts) != 2 || m.Format != "json" || m.Workers < 1 {
		t.Fatalf("manifest: %+v", m)
	}
	for _, e := range m.Artifacts {
		rendered, err := os.ReadFile(filepath.Join(dir, e.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if artifact.Fingerprint(rendered) != e.SHA256 {
			t.Fatalf("%s: manifest fingerprint does not match the written file", e.ID)
		}
	}
}

// TestManifestFingerprintsParallelInvariant regenerates one
// scenario-fleet artifact at -parallel 1 and -parallel 8 and compares
// the run manifests: the byte-identical guarantee must be checkable
// from the fingerprints alone.
func TestManifestFingerprintsParallelInvariant(t *testing.T) {
	manifestFor := func(parallel string) map[string]string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "manifest.json")
		args := []string{"-run", "table1,table3", "-parallel", parallel, "-manifest", path}
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		m, err := artifact.ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		return m.Fingerprints()
	}
	seq := manifestFor("1")
	par := manifestFor("8")
	if len(seq) != 2 {
		t.Fatalf("fingerprints = %v", seq)
	}
	for id, want := range seq {
		if par[id] != want {
			t.Fatalf("%s: fingerprint differs between -parallel 1 (%.12s) and -parallel 8 (%.12s)", id, want, par[id])
		}
	}
}

// TestFormatsRenderEveryArtifact smoke-renders one cheap artifact in
// every format.
func TestFormatsRenderEveryArtifact(t *testing.T) {
	for _, format := range artifact.Formats() {
		var out bytes.Buffer
		if err := run([]string{"-run", "table4", "-format", format}, &out); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("format %s produced no output", format)
		}
	}
}
