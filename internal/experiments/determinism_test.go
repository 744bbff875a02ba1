package experiments

import (
	"strings"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/runner"
)

// regenerate renders the full deterministic artifact set (every table
// and figure except the wall-clock C&C throughput run) with the given
// worker count, at sizes small enough for the race-detector CI run. It
// returns the concatenated text rendering and the run manifest.
func regenerate(t *testing.T, workers int) (string, *artifact.Manifest) {
	t.Helper()
	pool := runner.New(workers)
	overrides := map[string]int{"sites": 400, "days": 20}
	renderer, err := artifact.RendererFor("text")
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest(renderer.Format(), pool.Workers())
	var all strings.Builder
	for _, spec := range artifact.Deterministic() {
		res, rendered, err := artifact.RunRendered(spec, pool, overrides, renderer)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		all.Write(rendered)
		manifest.Add(spec, res, rendered)
	}
	return all.String(), manifest
}

// TestParallelRegenerationByteIdentical is the fleet engine's core
// guarantee: regenerating every deterministic artifact on 4 or 8
// workers produces output byte-identical to the sequential run — and
// the guarantee is checkable from the run manifests alone, whose
// per-artifact SHA-256 fingerprints must coincide.
func TestParallelRegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the artifact set three times; run without -short")
	}
	sequential, seqManifest := regenerate(t, 1)
	if !strings.Contains(sequential, "Table I") || !strings.Contains(sequential, "countermeasures") {
		t.Fatalf("sequential regeneration incomplete:\n%.400s", sequential)
	}
	seqPrints := seqManifest.Fingerprints()
	if len(seqPrints) != len(artifact.Deterministic()) {
		t.Fatalf("manifest covers %d artifacts, want %d", len(seqPrints), len(artifact.Deterministic()))
	}
	for _, workers := range []int{4, 8} {
		parallel, parManifest := regenerate(t, workers)
		if parallel != sequential {
			t.Errorf("workers=%d: output differs from sequential run\nseq:\n%.600s\npar:\n%.600s",
				workers, sequential, parallel)
		}
		parPrints := parManifest.Fingerprints()
		for id, want := range seqPrints {
			if parPrints[id] != want {
				t.Errorf("workers=%d: manifest fingerprint for %s = %.12s, sequential %.12s",
					workers, id, parPrints[id], want)
			}
		}
	}
}

// TestFleetStressKillChains hammers the runner with many concurrent
// full kill-chain scenarios — the race detector's chance to catch any
// state shared between supposedly self-contained scenarios.
func TestFleetStressKillChains(t *testing.T) {
	var profiles []browser.Profile
	for _, p := range browser.TableIIBrowsers() {
		if p.RunsOn(browser.Win10) {
			profiles = append(profiles, p)
		}
	}
	rows, err := runner.Map(runner.New(8), make([]struct{}, 24), func(i int, _ struct{}) (TableIICell, error) {
		p := profiles[i%len(profiles)]
		ok, loadErr, err := injectionSucceeds(core.Config{Profile: &p, OS: browser.Win10, Seed: 17}, "t2")
		if err == nil {
			err = loadErr
		}
		if err != nil {
			return TableIICell{}, err
		}
		return TableIICell{Browser: p.Name, OS: browser.Win10, Exists: true, Injected: ok}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rows {
		if !c.Injected {
			t.Errorf("kill chain %d (%s) failed under concurrency", i, c.Browser)
		}
	}
}
