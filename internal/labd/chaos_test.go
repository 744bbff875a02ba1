package labd_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
)

// batchRender regenerates a spec exactly as the batch CLI would and
// returns the rendered bytes plus the manifest fingerprint — the
// ground truth every run that reaches done must reproduce.
func batchRender(t *testing.T, specID, format string, overrides map[string]int) ([]byte, string) {
	t.Helper()
	spec, ok := artifact.Get(specID)
	if !ok {
		t.Fatalf("spec %s not registered", specID)
	}
	renderer, err := artifact.RendererFor(format)
	if err != nil {
		t.Fatal(err)
	}
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), overrides, renderer)
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest(format, 1)
	manifest.Add(spec, res, rendered)
	return rendered, manifest.Artifacts[0].SHA256
}

func closeServer(t *testing.T, srv *labd.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// scenarioSeed derives a deterministic chaos seed from the scenario's
// coordinates, so a failing matrix cell reproduces by name.
func scenarioSeed(site string, hit, workers int) int64 {
	s := int64(runner.FNV1a(fmt.Sprintf("%s/%d/%d", site, hit, workers)))
	if s == 0 {
		return 1
	}
	return s
}

// TestKillPointRecoveryMatrix is the crash-recovery gate: enumerate
// every declared fault site along enqueue → run → render → persist,
// crash the "process" at that site, restart over the surviving disk
// state, and verify the recovery invariants:
//
//   - no acknowledged run is ever lost;
//   - a sequence number, once issued, is never reissued;
//   - every acknowledged run ends done with the exact batch-CLI
//     manifest fingerprint, or failed "interrupted by restart" — never
//     left dangling;
//   - runs finished before the crash still serve their artifacts.
//
// The assertions are invariant-based on purpose: which writes became
// durable before a kill depends on where the site sits in the
// operation sequence, so the matrix checks properties that must hold
// at every interleaving instead of golden per-site outcomes.
//
// The workers axis sets the per-run pool width (Config.Workers) and is
// a coordinate of the cell's chaos seed. labd-t-ok renders the same at
// any width, so across the axis a cell differs in its seed, which picks
// where a crashed torn write (store.write.short) is cut.
func TestKillPointRecoveryMatrix(t *testing.T) {
	t.Parallel()
	sites := append(append([]string(nil), chaos.StoreSites...), labd.FleetSites...)
	wantSites := []string{
		chaos.SiteWrite, chaos.SiteWriteShort, chaos.SiteSync, chaos.SiteSyncDir,
		chaos.SiteRename, chaos.SiteRemove, chaos.SiteRead, chaos.SiteReadDir,
		labd.SiteJobStart, labd.SiteJobCrash, labd.SiteJobRender,
	}
	if fmt.Sprint(sites) != fmt.Sprint(wantSites) {
		t.Fatalf("swept sites = %v, want %v", sites, wantSites)
	}
	hits := []int{1, 2, 5}
	if testing.Short() {
		hits = []int{1}
	}
	wantBytes, wantSHA := batchRender(t, "labd-t-ok", "text", nil)

	for _, site := range sites {
		for _, hit := range hits {
			for _, workers := range []int{1, 4, 8} {
				site, hit, workers := site, hit, workers
				t.Run(fmt.Sprintf("%s/hit%d/w%d", site, hit, workers), func(t *testing.T) {
					t.Parallel()
					dir := t.TempDir()

					// Phase 0: prime a healthy store — one finished run the
					// crash must not disturb, plus .tmp debris whose sweep
					// exercises store.remove during recovery.
					srv0, err := labd.Open(labd.Config{StoreDir: dir, Fleets: 1, Workers: workers, Now: fakeClock()})
					if err != nil {
						t.Fatal(err)
					}
					prime, err := srv0.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
					if err != nil {
						t.Fatal(err)
					}
					if waitDone(t, srv0, prime.ID).Status != labd.StatusDone {
						t.Fatal("prime run did not finish")
					}
					closeServer(t, srv0)
					if err := os.WriteFile(filepath.Join(dir, "run-000050.json.tmp"), []byte(`{"id":"run-0`), 0o644); err != nil {
						t.Fatal(err)
					}

					// Phase 1: the same daemon, chaos-armed: crash exactly at
					// the hit-th crossing of this site. Track which run IDs
					// the dying process acknowledged to its clients.
					ctrl := chaos.New(scenarioSeed(site, hit, workers))
					ctrl.ArmAt(site, hit, chaos.Crash)
					var acked []string
					srv1, err := labd.Open(labd.Config{
						StoreDir: dir, Fleets: 1, Workers: workers,
						Chaos: ctrl, FS: chaos.BindFS(ctrl),
						Now: fakeClock(),
					})
					if err != nil {
						// Recovery itself crossed the kill-point — legitimate,
						// but only a kill excuses the failure.
						if !ctrl.Killed() {
							t.Fatalf("chaos-armed open failed without a kill: %v", err)
						}
					} else {
						for i := 0; i < 2; i++ {
							if rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"}); err == nil {
								acked = append(acked, rec.ID)
							} else if !ctrl.Killed() {
								t.Fatalf("enqueue failed without a kill: %v", err)
							}
						}
						deadline := time.Now().Add(30 * time.Second)
						for !ctrl.Killed() {
							terminal := 0
							for _, id := range acked {
								if r, ok := srv1.Get(id); ok && r.Status.Terminal() {
									terminal++
								}
							}
							if terminal == len(acked) {
								break
							}
							if time.Now().After(deadline) {
								t.Fatal("phase 1 never settled")
							}
							time.Sleep(time.Millisecond)
						}
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						_ = srv1.Close(ctx) // a killed process does not drain politely
						cancel()
					}
					if hit == 1 && ctrl.Fired(site) == 0 {
						t.Fatalf("site %s never fired on its first crossing — the matrix does not cover it", site)
					}

					// Phase 2: reboot over the debris, chaos off. Every
					// invariant must hold regardless of where the kill landed.
					srv2 := openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: workers})
					p2, ok := srv2.Get(prime.ID)
					if !ok || p2.Status != labd.StatusDone {
						t.Fatalf("primed run lost or no longer done: %+v", p2)
					}
					if _, _, err := srv2.Artifact(prime.ID); err != nil {
						t.Fatalf("primed artifact unreadable after recovery: %v", err)
					}
					maxID := prime.ID
					for _, id := range acked {
						if id > maxID {
							maxID = id
						}
						if _, ok := srv2.Get(id); !ok {
							t.Fatalf("acknowledged run %s lost across the crash", id)
						}
						final := waitDone(t, srv2, id)
						switch {
						case final.Status == labd.StatusDone:
							if final.SHA256 != wantSHA {
								t.Fatalf("run %s fingerprint %s != batch manifest %s", id, final.SHA256, wantSHA)
							}
							body, _, err := srv2.Artifact(id)
							if err != nil {
								t.Fatal(err)
							}
							if string(body) != string(wantBytes) {
								t.Fatalf("run %s artifact bytes diverge from the batch CLI render", id)
							}
						case final.Status == labd.StatusFailed && strings.Contains(final.Error, "interrupted by restart"):
						default:
							t.Fatalf("run %s = %s (%q), want done or interrupted-by-restart", id, final.Status, final.Error)
						}
					}
					fresh, err := srv2.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
					if err != nil {
						t.Fatal(err)
					}
					if fresh.ID <= maxID {
						t.Fatalf("fresh run %s reuses ID space (max prior %s)", fresh.ID, maxID)
					}
				})
			}
		}
	}
}

// readSSEStages consumes an SSE response body and returns the stage
// names in arrival order, until the predicate says stop or the stream
// closes.
func readSSEStages(body *bufio.Scanner, stop func(stage string) bool) []string {
	var stages []string
	for body.Scan() {
		line := body.Text()
		stage, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		stages = append(stages, stage)
		if stop != nil && stop(stage) {
			break
		}
	}
	return stages
}

// TestSSEStreamAcrossRestart: a client watching a run's live SSE stream
// over real HTTP loses the connection when the daemon is killed
// mid-run, reconnects to the restarted daemon, and sees the full
// ordered timeline — the stages from before the crash and the failed
// stage recovery appended.
func TestSSEStreamAcrossRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	// Writes: record queued (1), running (2), rendering (3), artifact
	// (4) — killed.
	ctrl := chaos.New(scenarioSeed("sse-restart", 4, 1))
	ctrl.ArmAt(chaos.SiteWrite, 4, chaos.Crash)
	srv1, err := labd.Open(labd.Config{
		StoreDir: dir, Fleets: 1, Workers: 1,
		Chaos: ctrl, FS: chaos.BindFS(ctrl),
		Now: fakeClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	base1, shutdown1, err := srv1.Serve()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base1 + "/v1/runs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	live := readSSEStages(bufio.NewScanner(resp.Body), func(stage string) bool {
		return stage == string(labd.StatusRunning)
	})
	if len(live) == 0 || live[len(live)-1] != string(labd.StatusRunning) {
		t.Fatalf("live stream never delivered running: %v", live)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !ctrl.Killed() {
		if time.Now().After(deadline) {
			t.Fatal("kill-point never fired")
		}
		time.Sleep(time.Millisecond)
	}
	resp.Body.Close()
	if err := shutdown1(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv1.Close(ctx)
	cancel()

	// Reboot over the debris and reconnect: the replayed stream must
	// carry the whole timeline in order, then close after the terminal.
	srv2 := openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: 1})
	base2, shutdown2, err := srv2.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown2()
	final := waitDone(t, srv2, rec.ID)
	if final.Status != labd.StatusFailed || final.Error != "interrupted by restart" {
		t.Fatalf("recovered run = %s (%q), want failed: interrupted by restart", final.Status, final.Error)
	}
	resp2, err := http.Get(base2 + "/v1/runs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayed := readSSEStages(bufio.NewScanner(resp2.Body), nil)
	want := []string{"queued", "running", "rendering", "failed"}
	if fmt.Sprint(replayed) != fmt.Sprint(want) {
		t.Fatalf("replayed timeline = %v, want %v", replayed, want)
	}
}

// TestStoreFailFaultsSurfaceCleanly covers the survivable (Fail) fault
// kinds: an injected ENOSPC or torn write makes the operation fail with
// a classifiable error, the daemon stays alive, the sequence number is
// consumed, and the next restart sweeps whatever debris the short
// write left behind.
func TestStoreFailFaultsSurfaceCleanly(t *testing.T) {
	t.Parallel()
	for _, site := range []string{chaos.SiteWrite, chaos.SiteWriteShort, chaos.SiteSync, chaos.SiteRename, chaos.SiteSyncDir} {
		site := site
		t.Run(site, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ctrl := chaos.New(scenarioSeed(site, 1, 1))
			ctrl.ArmAt(site, 1, chaos.Fail)
			srv, err := labd.Open(labd.Config{
				StoreDir: dir, Fleets: 1, Workers: 1,
				Chaos: ctrl, FS: chaos.BindFS(ctrl),
				Now: fakeClock(),
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err == nil {
				t.Fatalf("enqueue through a failing %s succeeded", site)
			}
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("fault not classifiable as injected: %v", err)
			}
			if (site == chaos.SiteWrite || site == chaos.SiteWriteShort) && !errors.Is(err, chaos.ErrNoSpace) {
				t.Fatalf("write fault not classified ENOSPC: %v", err)
			}
			if ctrl.Killed() {
				t.Fatal("a Fail fault latched the controller killed")
			}
			// The daemon survives and the next enqueue works — on a fresh
			// sequence number; the failed one is burned, never reissued.
			rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err != nil {
				t.Fatal(err)
			}
			if rec.ID != "run-000002" {
				t.Fatalf("post-fault enqueue got %s, want run-000002 (seq 1 burned)", rec.ID)
			}
			if waitDone(t, srv, rec.ID).Status != labd.StatusDone {
				t.Fatal("post-fault run did not finish")
			}
			closeServer(t, srv)

			// A restart over the debris sweeps any torn .tmp and serves
			// the surviving run.
			srv2 := openServer(t, labd.Config{StoreDir: dir})
			if got, ok := srv2.Get(rec.ID); !ok || got.Status != labd.StatusDone {
				t.Fatalf("surviving run lost after restart: %+v", got)
			}
			// Drain first: a record renamed before its failed directory
			// sync survives as queued, and the restart runs it — its
			// in-flight commit is not debris.
			closeServer(t, srv2)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("torn-write debris %s not swept on restart", e.Name())
				}
			}
		})
	}
}

// TestTerminalCommitFailureNeverPublishesDone fails the done record's
// commit at each step of the atomic write. A client must never see done
// for a record the disk does not hold: the run ends failed with the
// store error instead, and a restart agrees — the run is neither
// re-run nor resurrected.
func TestTerminalCommitFailureNeverPublishesDone(t *testing.T) {
	t.Parallel()
	// The done record is a run's last store write: labd-t-ok commits
	// queued, running, rendering, artifact, done (5 writes).
	const doneWrite = 5
	for _, site := range []string{chaos.SiteWrite, chaos.SiteWriteShort, chaos.SiteSync, chaos.SiteRename, chaos.SiteSyncDir} {
		site := site
		t.Run(site+"/labd-t-ok", func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ctrl := chaos.New(scenarioSeed(site, doneWrite, 1))
			ctrl.ArmAt(site, doneWrite, chaos.Fail)
			srv := openServer(t, labd.Config{
				StoreDir: dir, Fleets: 1, Workers: 1,
				Chaos: ctrl, FS: chaos.BindFS(ctrl),
			})
			rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err != nil {
				t.Fatal(err)
			}
			events, _ := srv.Subscribe(rec.ID)
			var seen []labd.Status
			for ev := range events {
				seen = append(seen, ev.Stage)
			}
			want := []labd.Status{labd.StatusQueued, labd.StatusRunning, labd.StatusRendering, labd.StatusFailed}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Fatalf("client saw %v, want %v", seen, want)
			}
			if ctrl.Fired(site) != 1 {
				t.Fatalf("fault at %s fired %d times, want 1", site, ctrl.Fired(site))
			}
			final, _ := srv.Get(rec.ID)
			if final.Status != labd.StatusFailed || !strings.Contains(final.Error, "record "+rec.ID) || final.SHA256 != "" {
				t.Fatalf("final = %s %q sha %q, want failed on the record commit, no fingerprint", final.Status, final.Error, final.SHA256)
			}
			closeServer(t, srv)

			after := waitDone(t, openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: 1}), rec.ID)
			if after.Status != labd.StatusFailed || after.Error != final.Error {
				t.Fatalf("after restart = %s %q, want the failure the client saw: %q",
					after.Status, after.Error, final.Error)
			}
		})
	}
}
