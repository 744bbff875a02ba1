package experiments

import (
	"bytes"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/netsim"
	"masterparasite/internal/replay"
	"masterparasite/internal/runner"
)

// recordKillChain captures one kill-chain run for a seed.
func recordKillChain(t *testing.T, opts KillChainOpts) *replay.Recorder {
	t.Helper()
	rec := replay.NewRecorder(nil)
	if err := RunKillChain(opts, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("kill chain recorded no events")
	}
	return rec
}

// renderReplay renders the replay artifact with the given worker count.
func renderReplay(t *testing.T, workers int) (string, []byte) {
	t.Helper()
	spec, ok := artifact.Get("replay")
	if !ok {
		t.Fatal("replay artifact not registered")
	}
	renderer, err := artifact.RendererFor("text")
	if err != nil {
		t.Fatal(err)
	}
	res, rendered, err := artifact.RunRendered(spec, runner.New(workers), nil, renderer)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := res.Dataset.(ReplayData)
	if !ok || len(data) == 0 {
		t.Fatalf("replay artifact dataset = %T", res.Dataset)
	}
	for _, row := range data {
		if !row.DriveOK || !row.CompressedOK || !row.RerunOK {
			t.Errorf("seed %d verdicts: drive=%v compressed=%v rerun=%v",
				row.Seed, row.DriveOK, row.CompressedOK, row.RerunOK)
		}
		if len(row.Fingerprint) != 64 {
			t.Errorf("seed %d: fingerprint %q is not a SHA-256 hex digest", row.Seed, row.Fingerprint)
		}
	}
	return data[0].Fingerprint, rendered
}

// TestReplayFingerprintStableAcrossWorkers asserts the PR's headline
// guarantee: a recorded run's divergence fingerprint — and the whole
// rendered replay artifact around it — is byte-identical whether the
// fleet runs on 1, 4, or 8 workers.
func TestReplayFingerprintStableAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("records the kill chain 12 times per worker count; run without -short")
	}
	fp1, out1 := renderReplay(t, 1)
	for _, workers := range []int{4, 8} {
		fp, out := renderReplay(t, workers)
		if fp != fp1 {
			t.Errorf("workers=%d: fingerprint %.16s, sequential %.16s", workers, fp, fp1)
		}
		if string(out) != string(out1) {
			t.Errorf("workers=%d: rendered artifact differs from sequential run", workers)
		}
	}
}

// TestReplayDivergenceExactIndex injects the canonical perturbation (a
// slower server) and asserts Diff reports the divergence as a timing
// change with a before/after pair — and that an unperturbed re-run
// reports none at all.
func TestReplayDivergenceExactIndex(t *testing.T) {
	const seed = 97
	base := recordKillChain(t, KillChainOpts{Seed: seed})

	// Unperturbed re-run: diffs clean.
	rerun := recordKillChain(t, KillChainOpts{Seed: seed})
	if d := replay.Diff(base.Events(), rerun.Events()); d != nil {
		t.Fatalf("identical re-run diverged:\n%s", d)
	}

	pert := recordKillChain(t, KillChainOpts{Seed: seed, ServerDelay: perturbDelay})
	d := replay.Diff(base.Events(), pert.Events())
	if d == nil {
		t.Fatal("perturbed re-run did not diverge")
	}
	// Everything before the divergence is identical by construction; the
	// event at the index must show the timing change in its field diff.
	if d.Recorded == nil || d.Live == nil {
		t.Fatalf("divergence lacks a before/after pair:\n%s", d)
	}
	found := false
	for _, f := range d.ChangedFields() {
		if len(f) >= 4 && f[:4] == "time" {
			found = true
		}
	}
	if !found {
		t.Errorf("divergence does not attribute the change to timing:\n%s", d)
	}
}

// TestReplayCapturesLinkFaults is the fault-injection regression test:
// re-running a recorded kill chain under a lossy, duplicating
// LinkProfile must surface the faults as KindDrop and KindDup events in
// the MPRL log, change the divergence fingerprint, and diverge from the
// clean recording. The faulted log must also survive a write/ReadLog
// round trip.
func TestReplayCapturesLinkFaults(t *testing.T) {
	const seed = 97
	base := recordKillChain(t, KillChainOpts{Seed: seed})
	if base.CountKind(replay.KindDup) != 0 {
		t.Fatal("clean-wire recording contains duplicate deliveries")
	}

	lossy := netsim.LinkProfile{Name: "regress", Loss: 0.15, Duplicate: 0.2, Seed: 7}
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	if err := RunKillChain(KillChainOpts{Seed: seed, Link: &lossy}, rec); err != nil {
		t.Fatal(err)
	}
	if got := rec.CountKind(replay.KindDrop); got == 0 {
		t.Error("no loss-induced drops recorded at 15% loss")
	}
	if got := rec.CountKind(replay.KindDup); got == 0 {
		t.Error("no duplicate deliveries recorded at 20% duplication")
	}
	if rec.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint unchanged despite link faults")
	}

	if replay.Diff(base.Events(), rec.Events()) == nil {
		t.Fatal("diff saw no divergence against the clean recording")
	}

	// The streamed log round-trips: same events, same fingerprint.
	events, err := replay.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rec.Count() {
		t.Fatalf("round trip lost events: %d read, %d recorded", len(events), rec.Count())
	}
	if fp := replay.FingerprintEvents(events); fp != rec.Fingerprint() {
		t.Errorf("round-trip fingerprint %.16s != recorded %.16s", fp, rec.Fingerprint())
	}
}
