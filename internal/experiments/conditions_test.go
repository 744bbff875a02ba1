package experiments

import (
	"strings"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/netsim"
	"masterparasite/internal/runner"
)

// runConditions executes the conditions spec at CI-sized params.
func runConditions(t *testing.T, workers int) ConditionsData {
	t.Helper()
	spec, ok := artifact.Get("conditions")
	if !ok {
		t.Fatal("conditions spec not registered")
	}
	env, err := spec.NewEnv(runner.New(workers), map[string]int{"attempts": 2, "payload": 8192})
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Exec(env)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := res.Dataset.(ConditionsData)
	if !ok {
		t.Fatalf("dataset type %T", res.Dataset)
	}
	return data
}

func TestConditionsMatrix(t *testing.T) {
	data := runConditions(t, 1)
	if len(data) != len(netsim.Profiles()) {
		t.Fatalf("%d rows, want %d", len(data), len(netsim.Profiles()))
	}
	byName := map[string]ConditionsRow{}
	for _, r := range data {
		byName[r.Profile] = r
	}
	clean := byName["clean"]
	if clean.InjectionWins != clean.Attempts {
		t.Errorf("clean link lost the injection race: %d/%d", clean.InjectionWins, clean.Attempts)
	}
	if !clean.Evicted || !clean.ChurnSurvived {
		t.Errorf("clean link: evicted=%v churn=%v, want both true", clean.Evicted, clean.ChurnSurvived)
	}
	if clean.GoodputKBs <= 0 || clean.LinkLost != 0 || clean.LinkDup != 0 {
		t.Errorf("clean link: goodput=%v lost=%d dup=%d", clean.GoodputKBs, clean.LinkLost, clean.LinkDup)
	}
	congested := byName["congested"]
	if congested.LinkLost == 0 {
		t.Errorf("congested link dropped nothing during the C&C transfer")
	}
	if congested.GoodputKBs >= clean.GoodputKBs {
		t.Errorf("congested goodput %.1f not below clean %.1f", congested.GoodputKBs, clean.GoodputKBs)
	}
}

// TestConditionsByteIdenticalAcrossWorkers is the artifact's own
// determinism check at CI size; the full-size sweep rides in
// TestParallelRegenerationByteIdentical with the rest of the registry.
func TestConditionsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three regenerations; run without -short")
	}
	seq := runConditions(t, 1)
	for _, workers := range []int{4, 8} {
		par := runConditions(t, workers)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d row %d differs:\nseq %+v\npar %+v", workers, i, seq[i], par[i])
			}
		}
	}
}

// TestCNCDownstreamOverTenPercentLoss is the acceptance check for the
// covert channel under serious fault pressure: a full downstream
// exchange (meta probe + every sprite batch) must complete bit-exact
// over a link eating at least 10% of deliveries, carried entirely by
// tcpsim retransmission.
func TestCNCDownstreamOverTenPercentLoss(t *testing.T) {
	lp := netsim.LinkProfile{Name: "ten-pct", Loss: 0.10, Seed: 41}
	res, err := cncGoodput(lp, 16384, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Fatal("link dropped nothing at 10% loss; test is vacuous")
	}
	if res.KBs <= 0 {
		t.Fatalf("C&C exchange failed over 10%% loss (lost %d frames)", res.Lost)
	}
}

// TestConditionsTextMentionsEveryProfile keeps the rendering honest.
func TestConditionsTextMentionsEveryProfile(t *testing.T) {
	spec, _ := artifact.Get("conditions")
	env, err := spec.NewEnv(runner.New(1), map[string]int{"attempts": 1, "payload": 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Exec(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range netsim.ProfileNames() {
		if !strings.Contains(res.Text, name) {
			t.Errorf("rendering misses profile %s:\n%s", name, res.Text)
		}
	}
}
