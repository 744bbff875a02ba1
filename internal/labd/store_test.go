package labd_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/labd"
)

// TestStoreReloadServesFinishedRuns locks durability: a done run's
// record and rendered artifact survive a daemon restart byte-for-byte.
func TestStoreReloadServesFinishedRuns(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	srv := openServer(t, labd.Config{StoreDir: dir})
	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok", Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, rec.ID)
	body, _, err := srv.Artifact(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := openServer(t, labd.Config{StoreDir: dir})
	got, ok := srv2.Get(rec.ID)
	if !ok {
		t.Fatalf("record %s lost across restart", rec.ID)
	}
	if got.Status != labd.StatusDone || got.SHA256 != final.SHA256 || len(got.Stages) != len(final.Stages) {
		t.Fatalf("reloaded record diverges:\ngot  %+v\nwant %+v", got, final)
	}
	body2, _, err := srv2.Artifact(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(body2) != string(body) {
		t.Fatal("reloaded artifact bytes diverge")
	}
	// New runs must not reuse IDs from the previous process.
	rec2, err := srv2.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID <= rec.ID {
		t.Fatalf("restarted server reused ID space: %s after %s", rec2.ID, rec.ID)
	}
}

// TestRestartRecovery locks the crash contract over every mid-flight
// record a store can hold: runs still queued when the process died are
// executed by the next process; runs that were mid-flight latch a
// durable "interrupted by restart" failure; a record without its
// checksum trailer is quarantined; stale .tmp files are swept; and
// every run-numbered file — a quarantined record and a stray .ckpt
// included — pins its sequence number.
func TestRestartRecovery(t *testing.T) {
	t.Parallel()
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	putRecord := func(st labd.Status) func(t *testing.T, store *labd.Store) {
		return func(t *testing.T, store *labd.Store) {
			stages := []labd.Stage{
				{Stage: labd.StatusQueued, At: at},
				{Stage: labd.StatusRunning, At: at.Add(time.Second)},
			}
			if st != labd.StatusRunning {
				stages = append(stages, labd.Stage{Stage: st, At: at.Add(2 * time.Second)})
			}
			if err := store.PutRecord(&labd.Record{
				ID: "run-000003", Spec: "labd-t-ok", Format: "text",
				Params: map[string]int{"labd-n": 2, "labd-seed": 1},
				Status: st, Stages: stages,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name        string
		write       func(t *testing.T, store *labd.Store)
		quarantined bool // run-000003 is corrupt, not interrupted
	}{
		{"running", putRecord(labd.StatusRunning), false},
		{"rendering", putRecord(labd.StatusRendering), false},
		// A resumed run's record in the trailer-less JSON the daemon
		// wrote before record checksums existed. The store accepts only
		// what seal writes, so the file is corrupt however well it
		// decodes.
		{"legacy-resumed", func(t *testing.T, store *labd.Store) {
			legacy := `{
  "id": "run-000003",
  "spec": "labd-t-ok",
  "title": "labd test artifact",
  "section": "test",
  "params": {"labd-n": 2, "labd-seed": 1},
  "deterministic": true,
  "format": "text",
  "status": "resumed",
  "stages": [
    {"stage": "queued", "at": "2026-01-01T00:00:00Z"},
    {"stage": "running", "at": "2026-01-01T00:00:01Z"},
    {"stage": "resumed", "at": "2026-01-01T00:00:02Z", "detail": "resumed after restart (1/3)"}
  ],
  "resumes": 1
}
`
			if err := os.WriteFile(filepath.Join(store.Dir(), "run-000003.json"), []byte(legacy), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		// A sealed record with a status this daemon does not know: any
		// non-terminal status latches failed.
		{"legacy-retrying", putRecord(labd.Status("retrying")), false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			store, err := labd.OpenStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.write(t, store)
			if err := store.PutRecord(&labd.Record{
				ID: "run-000007", Spec: "labd-t-ok", Format: "text",
				Params: map[string]int{"labd-n": 2, "labd-seed": 1},
				Status: labd.StatusQueued,
				Stages: []labd.Stage{{Stage: labd.StatusQueued, At: at}},
			}); err != nil {
				t.Fatal(err)
			}
			// A crash mid-write leaves a .tmp file; Open must sweep it.
			tmp := filepath.Join(dir, "run-000009.json.tmp")
			if err := os.WriteFile(tmp, []byte(`{"id":"run-0000`), 0o644); err != nil {
				t.Fatal(err)
			}
			// Any other run-numbered file, here a chunk checkpoint whose
			// record is gone, burns its sequence number too.
			ckpt := filepath.Join(dir, "run-000011.ckpt")
			if err := os.WriteFile(ckpt, []byte(`{"run":"run-000011","chunks":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}

			srv := openServer(t, labd.Config{StoreDir: dir})
			if c.quarantined {
				if got, ok := srv.Get("run-000003"); ok {
					t.Fatalf("trailer-less record served: %+v", got)
				}
				if q := srv.Store().Quarantined(); len(q) != 1 || q[0] != "run-000003.json" {
					t.Fatalf("quarantine report = %v, want [run-000003.json]", q)
				}
				if _, err := os.Stat(filepath.Join(dir, "run-000003.json.corrupt")); err != nil {
					t.Fatalf("trailer-less record not quarantined: %v", err)
				}
			} else {
				interrupted, ok := srv.Get("run-000003")
				if !ok || interrupted.Status != labd.StatusFailed || interrupted.Error != "interrupted by restart" {
					t.Fatalf("mid-flight run not latched failed: %+v", interrupted)
				}
				if last := interrupted.Stages[len(interrupted.Stages)-1]; last.Stage != labd.StatusFailed {
					t.Fatalf("last stage = %s, want failed", last.Stage)
				}
			}
			queued := waitDone(t, srv, "run-000007")
			if queued.Status != labd.StatusDone {
				t.Fatalf("queued run not executed: %+v", queued)
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("stale .tmp not swept: %v", err)
			}
			// Fresh IDs start after the highest run-numbered file.
			rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err != nil {
				t.Fatal(err)
			}
			if rec.ID != "run-000012" {
				t.Fatalf("next ID = %s, want run-000012", rec.ID)
			}
		})
	}
}

// TestLoadQuarantinesCorruptRecords is the truncated-JSON regression:
// recovery over a store holding one valid record and one torn record
// must quarantine the torn file to .corrupt, keep serving the valid
// run, and never reissue the quarantined sequence number.
func TestLoadQuarantinesCorruptRecords(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	srv := openServer(t, labd.Config{StoreDir: dir})
	var ids []string
	for i := 0; i < 2; i++ {
		rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		if waitDone(t, srv, id).Status != labd.StatusDone {
			t.Fatalf("run %s did not finish", id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Tear the second record mid-JSON, as a pre-checksum crash would.
	victim := filepath.Join(dir, ids[1]+".json")
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := openServer(t, labd.Config{StoreDir: dir})
	if got, ok := srv2.Get(ids[0]); !ok || got.Status != labd.StatusDone {
		t.Fatalf("valid run lost alongside the corrupt one: %+v", got)
	}
	if _, ok := srv2.Get(ids[1]); ok {
		t.Fatalf("corrupt record %s still served", ids[1])
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
	q := srv2.Store().Quarantined()
	if len(q) != 1 || q[0] != ids[1]+".json" {
		t.Fatalf("quarantine report = %v, want [%s.json]", q, ids[1])
	}
	// The quarantined file still pins its sequence number.
	rec, err := srv2.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "run-000003" {
		t.Fatalf("fresh run = %s, want run-000003 (quarantined seq must stay burned)", rec.ID)
	}
}

// TestArtifactCorruptionDetected locks the serve-side integrity check:
// artifact bytes that no longer hash to the record's fingerprint are
// refused, never served, and the API answers the refusal 500: the
// daemon's disk failed, not the client's request.
func TestArtifactCorruptionDetected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	srv := openServer(t, labd.Config{StoreDir: dir})
	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
	if err != nil {
		t.Fatal(err)
	}
	if waitDone(t, srv, rec.ID).Status != labd.StatusDone {
		t.Fatal("run did not finish")
	}
	if _, _, err := srv.Artifact(rec.ID); err != nil {
		t.Fatalf("pristine artifact refused: %v", err)
	}
	path := filepath.Join(dir, rec.ID+".out")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Artifact(rec.ID); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corrupted artifact served: err = %v", err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/runs/"+rec.ID+"/artifact", nil))
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "corrupted") {
		t.Fatalf("GET corrupted artifact = %d %q, want 500 naming the corruption", w.Code, w.Body)
	}
}
