package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/browser"
	"masterparasite/internal/crawler"
	"masterparasite/internal/runner"
)

// testRunner fans each experiment's scenario jobs out over all
// available cores; results are deterministic at any worker count.
func testRunner() *runner.Runner { return runner.New(0) }

// runArtifact executes one registered artifact with the given param
// overrides and asserts the registry contract on the way: identity is
// stamped, and the typed dataset survives a JSON round trip.
func runArtifact(t *testing.T, id string, overrides map[string]int) *artifact.Result {
	t.Helper()
	spec, ok := artifact.Get(id)
	if !ok {
		t.Fatalf("artifact %q not registered", id)
	}
	env, err := spec.NewEnv(testRunner(), overrides)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Exec(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != id || res.Title != spec.Title || res.Dataset == nil {
		t.Fatalf("identity not stamped: %+v", res)
	}
	assertDatasetRoundTrips(t, res)
	return res
}

// assertDatasetRoundTrips marshals the typed dataset, unmarshals it
// into a fresh instance of the same concrete type, and re-marshals —
// the `-format json` output must round-trip losslessly.
func assertDatasetRoundTrips(t *testing.T, res *artifact.Result) {
	t.Helper()
	first, err := json.Marshal(res.Dataset)
	if err != nil {
		t.Fatalf("%s: dataset does not marshal: %v", res.ID, err)
	}
	fresh := reflect.New(reflect.TypeOf(res.Dataset))
	if err := json.Unmarshal(first, fresh.Interface()); err != nil {
		t.Fatalf("%s: dataset does not unmarshal into %T: %v", res.ID, res.Dataset, err)
	}
	second, err := json.Marshal(fresh.Elem().Interface())
	if err != nil {
		t.Fatalf("%s: re-marshal: %v", res.ID, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s: dataset JSON round trip lossy:\nfirst:  %.200s\nsecond: %.200s", res.ID, first, second)
	}
}

func TestRegistryListsAllArtifacts(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5",
		"fig3", "fig5", "cnc", "flows", "countermeasures", "replay", "conditions",
		"fleet/infection-curve", "fleet/cnc-fanout"}
	got := artifact.IDs()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry order = %v, want %v", got, want)
	}
	var det []string
	for _, s := range artifact.Deterministic() {
		det = append(det, s.ID)
	}
	if len(det) != 13 {
		t.Fatalf("deterministic artifacts = %v; only cnc measures wall-clock", det)
	}
}

func TestTableIMatchesPaperShape(t *testing.T) {
	r := runArtifact(t, "table1", nil)
	rows, ok := r.Dataset.(TableIData)
	if !ok || len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Browser == "IE" {
			if row.Eviction || row.InterDomain || !row.OOMKilled {
				t.Fatalf("IE row = %+v; paper: × × with memory DOS", row)
			}
			continue
		}
		if !row.Eviction || !row.InterDomain {
			t.Fatalf("%s row = %+v; paper: eviction and inter-domain work", row.Browser, row)
		}
	}
}

func TestTableIIMatchesPaperShape(t *testing.T) {
	r := runArtifact(t, "table2", nil)
	cells, ok := r.Dataset.(TableIIData)
	if !ok || len(cells) != 30 {
		t.Fatalf("cells = %d, want 5 OSes × 6 browsers", len(cells))
	}
	existing, na := 0, 0
	for _, c := range cells {
		if !c.Exists {
			na++
			continue
		}
		existing++
		if !c.Injected {
			t.Fatalf("injection failed on %s/%s; paper: effective on every existing pair", c.Browser, c.OS)
		}
	}
	if existing != 20 || na != 10 {
		t.Fatalf("existing=%d na=%d; Table II has 20 supported pairs", existing, na)
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	r := runArtifact(t, "table3", nil)
	rows, ok := r.Dataset.(TableIIIData)
	if !ok || len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Browser == "IE" {
			if row.SupportsCacheAPI {
				t.Fatal("IE must be n/a (no Cache API)")
			}
			continue
		}
		if row.CtrlF5Removes || row.ClearCacheRemoves {
			t.Fatalf("%s: Ctrl+F5/clear-cache removed the parasite; paper: ×", row.Browser)
		}
		if !row.CookiesRemoves {
			t.Fatalf("%s: clear-cookies did not remove the parasite; paper: ✓", row.Browser)
		}
	}
}

func TestTableIVFunctionalInfection(t *testing.T) {
	r := runArtifact(t, "table4", nil)
	rows, ok := r.Dataset.(TableIVData)
	if !ok || len(rows) != 23 {
		t.Fatalf("rows = %d", len(rows))
	}
	sharedRuns := 0
	for _, row := range rows {
		if row.VictimsServed < 0 {
			continue
		}
		sharedRuns++
		if row.VictimsServed != 8 {
			t.Fatalf("%s served %d/8 victims; shared caches must infect all",
				row.Device.Instance, row.VictimsServed)
		}
	}
	if sharedRuns != 21 {
		t.Fatalf("functional runs = %d, want 21 shared devices", sharedRuns)
	}
}

func TestTableVAllAttacksSucceed(t *testing.T) {
	r := runArtifact(t, "table5", nil)
	rows, ok := r.Dataset.(TableVData)
	if !ok || len(rows) != 17 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if !row.Succeeded {
			t.Errorf("%s failed: %s", row.Attack, row.Evidence)
		}
	}
}

func TestFigure3SmallRun(t *testing.T) {
	r := runArtifact(t, "fig3", map[string]int{"sites": 400, "days": 20})
	res, ok := r.Dataset.(*crawler.PersistencyResult)
	if !ok {
		t.Fatal("wrong dataset type")
	}
	p0, p20 := res.At(0), res.At(20)
	if p0.PersistentName < p20.PersistentName {
		t.Fatal("persistence increased over time")
	}
	if !strings.Contains(r.Text, "persistent(name)") {
		t.Fatal("rendering incomplete")
	}
	if r.Params["sites"] != 400 || r.Params["days"] != 20 || r.Params["seed"] != 1 {
		t.Fatalf("resolved params = %v", r.Params)
	}
}

// TestFigure3TextRowsOncePerDay holds Fig. 3's text table to one row
// per distinct day, ascending and ending on the study's last day, and
// its 100-day anchor to naming the day it was measured on.
func TestFigure3TextRowsOncePerDay(t *testing.T) {
	for _, days := range []int{5, 20, 100} {
		r := runArtifact(t, "fig3", map[string]int{"sites": 100, "days": days})
		_, table, ok := strings.Cut(r.Text, "persistent(name)")
		if !ok {
			t.Fatalf("days %d: no table header in %q", days, r.Text)
		}
		table, anchors, _ := strings.Cut(table, "\n\n")
		var rows []int
		for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
			day, err := strconv.Atoi(strings.Fields(line)[0])
			if err != nil {
				t.Fatalf("days %d: row %q: %v", days, line, err)
			}
			if len(rows) > 0 && day <= rows[len(rows)-1] {
				t.Errorf("days %d: row for day %d follows day %d", days, day, rows[len(rows)-1])
			}
			rows = append(rows, day)
		}
		if len(rows) == 0 || rows[len(rows)-1] != days {
			t.Errorf("days %d: rows %v do not end on the last day", days, rows)
		}
		if want := fmt.Sprintf("@%dd)", days); !strings.HasSuffix(strings.TrimSpace(anchors), want) {
			t.Errorf("days %d: anchors %q do not end with %q", days, anchors, want)
		}
	}
}

func TestFigure5SmallRun(t *testing.T) {
	r := runArtifact(t, "fig5", map[string]int{"sites": 2000})
	s, ok := r.Dataset.(*crawler.HeaderSurvey)
	if !ok {
		t.Fatal("wrong dataset type")
	}
	if s.NoHTTPSShare < 15 || s.NoHTTPSShare > 27 {
		t.Fatalf("no-HTTPS share = %.1f", s.NoHTTPSShare)
	}
	if s.AnalyticsShare <= 0 {
		t.Fatalf("analytics share missing from the dataset: %.1f", s.AnalyticsShare)
	}
	if !strings.Contains(r.Text, "connect-src") {
		t.Fatal("rendering incomplete")
	}
}

func TestCNCThroughputShape(t *testing.T) {
	r := runArtifact(t, "cnc", map[string]int{"payload": 8 * 1024})
	rep, ok := r.Dataset.(CNCReport)
	if !ok {
		t.Fatal("wrong dataset type")
	}
	if rep.DownstreamLoopback <= 0 || rep.DownstreamRTTConc <= 0 ||
		rep.DownstreamRTTSeq <= 0 || rep.UpstreamThroughput <= 0 {
		t.Fatalf("rates: %+v", rep)
	}
	// The paper's 100 KB/s depends on concurrency: once the channel is
	// RTT-bound, parallel fetches must clearly beat sequential ones.
	// The race-detector CI run (-short -race) serializes goroutines and
	// flattens the wall-clock advantage, so it only requires a win at
	// all; the full run demands the 4× the paper's claim implies.
	ratio := 4.0
	if testing.Short() {
		ratio = 1.5
	}
	if rep.DownstreamRTTConc < ratio*rep.DownstreamRTTSeq {
		t.Fatalf("RTT-bound concurrent (%.0f B/s) not ≥%.1f× sequential (%.0f B/s)",
			rep.DownstreamRTTConc, ratio, rep.DownstreamRTTSeq)
	}
}

func TestCountermeasuresMatrix(t *testing.T) {
	r := runArtifact(t, "countermeasures", nil)
	rows, ok := r.Dataset.(CountermeasuresData)
	if !ok || len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]CountermeasureRow, len(rows))
	for _, row := range rows {
		byName[row.Defence] = row
	}
	base := byName["none (baseline)"]
	if !base.Infected || !base.Persisted || !base.CNCWorked || base.Propagated < 2 {
		t.Fatalf("baseline = %+v", base)
	}
	if tls := byName["HTTPS on target"]; tls.Infected || tls.Persisted || tls.CNCWorked {
		t.Fatalf("HTTPS row = %+v; must stop everything", tls)
	}
	if cert := byName["HTTPS + fraudulent cert"]; !cert.Infected || !cert.CNCWorked {
		t.Fatalf("fraudulent cert row = %+v; must restore the attack", cert)
	}
	if rq := byName["random query string on scripts"]; !rq.Infected || rq.Persisted {
		t.Fatalf("random-query row = %+v; infection transient, persistence gone", rq)
	}
	if csp := byName["strict CSP on pages"]; csp.Propagated != 1 || csp.CNCWorked {
		t.Fatalf("CSP row = %+v; propagation and C&C must be blocked", csp)
	}
	if lw := byName["last-wins reassembly (ablation)"]; !lw.Infected {
		t.Fatalf("last-wins row = %+v; race win still infects", lw)
	}
}

func TestMessageFlowsPhases(t *testing.T) {
	r := runArtifact(t, "flows", nil)
	for _, phase := range []string{"Fig. 1", "Fig. 2", "Fig. 4"} {
		if !strings.Contains(r.Text, phase) {
			t.Fatalf("missing phase %s", phase)
		}
	}
	// The infection phase must show attacker-box frames racing ahead.
	fig2 := r.Text[strings.Index(r.Text, "Fig. 2"):]
	if !strings.Contains(fig2, "attacker-box") {
		t.Fatal("no attacker frames in the infection flow")
	}
	// The dataset mirrors the text: three phases, each with traffic.
	phases, ok := r.Dataset.(FlowsData)
	if !ok || len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	for _, p := range phases {
		if len(p.Events) == 0 {
			t.Fatalf("phase %q traced no frames", p.Name)
		}
	}
}

func TestScaleProfileKeepsRatio(t *testing.T) {
	p, err := browser.ProfileByName("IE")
	if err != nil {
		t.Fatal(err)
	}
	s := scaleProfile(p)
	if s.CacheSize <= 0 || s.MemoryLimit <= s.CacheSize/2 {
		t.Fatalf("scaled profile degenerate: %+v", s)
	}
	ratio := float64(p.MemoryLimit) / float64(p.CacheSize)
	sratio := float64(s.MemoryLimit) / float64(s.CacheSize)
	if ratio/sratio > 1.01 || sratio/ratio > 1.01 {
		t.Fatalf("scaling changed the memory/cache ratio: %f vs %f", ratio, sratio)
	}
}
