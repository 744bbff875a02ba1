package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/netsim"
	"masterparasite/internal/replay"
	"masterparasite/internal/runner"
)

// goldenParams are the `make artifacts` sizes the byte gate regenerates
// at; every other param keeps its default.
var goldenParams = map[string]int{"sites": 400, "days": 20, "payload": 8192}

// TestArtifactBytesMatchGolden is the byte gate: every deterministic
// artifact, rendered as JSON at the `make artifacts` sizes, must match
// the SHA-256 and length committed in testdata/golden-manifest.json,
// and the seed-97 kill-chain recordings must match their committed
// divergence fingerprints, clean and on coffee-shop-wifi. It is fast
// enough for every CI tier, so -short does not skip it. A change that
// alters bytes on purpose regenerates the golden files and says why:
//
//	go run ./cmd/experiments -run table1,table2,table3,table4,table5,fig3,fig5,flows,countermeasures,replay,conditions,fleet/infection-curve,fleet/cnc-fanout \
//	    -sites 400 -days 20 -payload 8192 -format json -parallel 2 -manifest internal/experiments/testdata/golden-manifest.json
//	go run ./cmd/experiments -record /tmp/kc.replay -seed 97 && cp /tmp/kc.replay.fp internal/experiments/testdata/killchain-seed97.fp
//	go run ./cmd/experiments -record /tmp/kc.replay -seed 97 -conditions coffee-shop-wifi && cp /tmp/kc.replay.fp internal/experiments/testdata/killchain-seed97-coffee-shop-wifi.fp
func TestArtifactBytesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden artifact.Manifest
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("golden manifest: %v", err)
	}
	want := make(map[string]artifact.ManifestEntry, len(golden.Artifacts))
	for _, e := range golden.Artifacts {
		want[e.ID] = e
	}
	renderer, err := artifact.RendererFor(golden.Format)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(golden.Workers)
	specs := artifact.Deterministic()
	if len(specs) != len(want) {
		t.Errorf("%d deterministic specs registered, golden manifest pins %d", len(specs), len(want))
	}
	for _, spec := range specs {
		g, ok := want[spec.ID]
		if !ok {
			t.Errorf("%s: no golden entry", spec.ID)
			continue
		}
		res, rendered, err := artifact.RunRendered(spec, pool, goldenParams, renderer)
		if err != nil {
			t.Fatal(err)
		}
		if sum := artifact.Fingerprint(rendered); sum != g.SHA256 || len(rendered) != g.Bytes {
			t.Errorf("%s: %d bytes, sha256 %.12s; golden %d bytes, %.12s", spec.ID, len(rendered), sum, g.Bytes, g.SHA256)
		}
		checkTables(t, res)
	}

	wifi, err := netsim.ProfileByName("coffee-shop-wifi")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		link *netsim.LinkProfile
	}{
		{"killchain-seed97.fp", nil},
		{"killchain-seed97-coffee-shop-wifi.fp", &wifi},
	} {
		fp, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		rec := replay.NewRecorder(nil)
		if err := RunKillChain(KillChainOpts{Seed: 97, Link: c.link}, rec); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Fingerprint(), strings.TrimSpace(string(fp)); got != want {
			t.Errorf("%s: replay fingerprint %.12s, golden %.12s", c.file, got, want)
		}
	}
}

// TestFigure3PaperScaleBytes pins Fig. 3 at the paper's own size,
// 15,000 sites over 100 days, which the README offers: the golden
// sizes never roll a churn period past day 20, and the periods run to
// day 99. Skipped under -short, where the race detector makes it slow;
// `make crawl-paper` runs it.
func TestFigure3PaperScaleBytes(t *testing.T) {
	checkPaperScale(t, "fig3", map[string]int{"sites": 15000, "days": 100},
		"424d6e724ae8fbe99fcb993124224008002f06ae95041c20c96b7b12eedd6f01")
}

// TestFigure5PaperScaleBytes pins Fig. 5 at the paper's 15,000 sites:
// the header survey renders every site's day-0 page, and the golden
// size covers only 400 of them. Skipped under -short with Fig. 3's;
// `make crawl-paper` runs it.
func TestFigure5PaperScaleBytes(t *testing.T) {
	checkPaperScale(t, "fig5", map[string]int{"sites": 15000},
		"61c9837542e644d0d13d7e4e9e5c1105713449b253d3dc51c57faf89d0112db1")
}

// checkPaperScale renders artifact id as JSON at params on all cores
// and requires its SHA-256 to be want.
func checkPaperScale(t *testing.T, id string, params map[string]int, want string) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale crawl; make crawl-paper runs this")
	}
	spec, ok := artifact.Get(id)
	if !ok {
		t.Fatalf("%s is not registered", id)
	}
	renderer, err := artifact.RendererFor("json")
	if err != nil {
		t.Fatal(err)
	}
	_, rendered, err := artifact.RunRendered(spec, runner.New(0), params, renderer)
	if err != nil {
		t.Fatal(err)
	}
	if sum := artifact.Fingerprint(rendered); sum != want {
		t.Errorf("%s at %v: %d bytes, sha256 %.12s; want %.12s", id, params, len(rendered), sum, want)
	}
}

// checkTables renders res as CSV and as Markdown. The CSV must read
// back as the dataset's Table(), header first, and the Markdown table
// must hold its header, the separator and one line per row.
func checkTables(t *testing.T, res *artifact.Result) {
	t.Helper()
	header, rows := res.Dataset.Table()
	for _, format := range []string{"csv", "md"} {
		r, err := artifact.RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := r.Render(&out, res); err != nil {
			t.Errorf("%s as %s: %v", res.ID, format, err)
			continue
		}
		if format == "csv" {
			records, err := csv.NewReader(&out).ReadAll()
			want := append([][]string{header}, rows...)
			if err != nil || !slices.EqualFunc(records, want, slices.Equal) {
				t.Errorf("%s as csv reads back %d records (%v), want the header and %d rows", res.ID, len(records), err, len(rows))
			}
			continue
		}
		lines := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "|") {
				lines++
			}
		}
		if lines != 2+len(rows) {
			t.Errorf("%s as md has %d table lines, want the header, the separator and %d rows", res.ID, lines, len(rows))
		}
	}
}
