package labd_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
)

// ---- test specs -----------------------------------------------------
//
// The registry is global to the test binary, so the labd tests register
// a handful of tiny purpose-built specs once: a fast deterministic
// artifact, a failing one, one that traces execution order, and one
// that blocks until released (drain tests).

type kvDataset []struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

func (d kvDataset) Table() (header []string, rows [][]string) {
	header = []string{"name", "value"}
	for _, r := range d {
		rows = append(rows, []string{r.Name, fmt.Sprint(r.Value)})
	}
	return header, rows
}

var (
	traceMu  sync.Mutex
	traceLog []int

	blockMu sync.Mutex
	blockCh = make(chan struct{}) // closed to release labd-t-block runs
)

// resetBlock arms a fresh gate for labd-t-block runs and returns the
// release function (safe across -count=N reruns of the test binary).
func resetBlock() (release func()) {
	blockMu.Lock()
	defer blockMu.Unlock()
	ch := make(chan struct{})
	blockCh = ch
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func blockGate() chan struct{} {
	blockMu.Lock()
	defer blockMu.Unlock()
	return blockCh
}

func init() {
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-ok", Title: "labd test artifact", Section: "test",
		Seed: 11, Deterministic: true,
		Params: []artifact.Param{
			{Name: "labd-n", Usage: "row count", Default: 3, Min: 1},
			{Name: "labd-seed", Usage: "value seed", Default: 1, Min: 1},
		},
		Run: func(env artifact.Env) (*artifact.Result, error) {
			n, seed := env.Param("labd-n"), env.Param("labd-seed")
			var d kvDataset
			var text strings.Builder
			for i := 0; i < n; i++ {
				v := (i + 1) * seed
				d = append(d, struct {
					Name  string `json:"name"`
					Value int    `json:"value"`
				}{Name: fmt.Sprintf("row%d", i), Value: v})
				fmt.Fprintf(&text, "row%d = %d\n", i, v)
			}
			return &artifact.Result{Text: text.String(), Dataset: d}, nil
		},
	})
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-err", Title: "labd failing artifact", Section: "test",
		Run: func(artifact.Env) (*artifact.Result, error) {
			return nil, errors.New("scenario exploded")
		},
	})
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-trace", Title: "labd order tracer", Section: "test",
		Params: []artifact.Param{{Name: "labd-k", Usage: "trace tag", Default: 0, Min: 0}},
		Run: func(env artifact.Env) (*artifact.Result, error) {
			traceMu.Lock()
			traceLog = append(traceLog, env.Param("labd-k"))
			traceMu.Unlock()
			return &artifact.Result{Text: "traced\n", Dataset: kvDataset{}}, nil
		},
	})
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-block", Title: "labd blocking artifact", Section: "test",
		Run: func(artifact.Env) (*artifact.Result, error) {
			<-blockGate()
			return &artifact.Result{Text: "released\n", Dataset: kvDataset{}}, nil
		},
	})
}

// fakeClock returns a deterministic strictly-increasing clock starting
// at a fixed instant, so stage timestamps (and therefore record and
// event bytes) are identical across servers driving identical request
// sequences.
func fakeClock() func() time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var ticks atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * time.Millisecond)
	}
}

func openServer(t *testing.T, cfg labd.Config) *labd.Server {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.Now == nil {
		cfg.Now = fakeClock()
	}
	srv, err := labd.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv
}

func waitDone(t *testing.T, srv *labd.Server, id string) *labd.Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return rec
}

// ---- lifecycle ------------------------------------------------------

func TestRunLifecycleMatchesBatchCLI(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{Workers: 1})
	rec, err := srv.Enqueue(labd.EnqueueRequest{
		Spec: "labd-t-ok", Params: map[string]int{"labd-n": 5}, Format: "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "run-000001" || rec.Status != labd.StatusQueued {
		t.Fatalf("enqueue record: %+v", rec)
	}
	if rec.Params["labd-n"] != 5 || rec.Params["labd-seed"] != 1 {
		t.Fatalf("params not resolved against defaults: %v", rec.Params)
	}

	final := waitDone(t, srv, rec.ID)
	if final.Status != labd.StatusDone {
		t.Fatalf("status = %s (error %q)", final.Status, final.Error)
	}
	var stages []labd.Status
	for _, st := range final.Stages {
		stages = append(stages, st.Stage)
	}
	want := []labd.Status{labd.StatusQueued, labd.StatusRunning, labd.StatusRendering, labd.StatusDone}
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := 1; i < len(final.Stages); i++ {
		if final.Stages[i].At.Before(final.Stages[i-1].At) {
			t.Fatalf("stage timestamps not monotonic: %+v", final.Stages)
		}
	}

	// The served fingerprint must equal the batch CLI's manifest entry
	// for the same spec, params, and format.
	spec, _ := artifact.Get("labd-t-ok")
	renderer, _ := artifact.RendererFor("json")
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), map[string]int{"labd-n": 5}, renderer)
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest("json", 1)
	manifest.Add(spec, res, rendered)
	if got, want := final.SHA256, manifest.Artifacts[0].SHA256; got != want {
		t.Fatalf("served fingerprint %s != batch manifest %s", got, want)
	}
	body, _, err := srv.Artifact(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(rendered) {
		t.Fatalf("served artifact diverges from batch render:\n%s\nvs\n%s", body, rendered)
	}
	if final.Bytes != len(rendered) {
		t.Fatalf("record bytes = %d, want %d", final.Bytes, len(rendered))
	}
}

func TestFailedRunLatchesError(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{})
	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-err"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, rec.ID)
	if final.Status != labd.StatusFailed || !strings.Contains(final.Error, "scenario exploded") {
		t.Fatalf("final = %+v", final)
	}
	if _, _, err := srv.Artifact(rec.ID); err == nil {
		t.Fatal("artifact fetch of a failed run succeeded")
	}
}

// TestPermanentErrorFailsFast: a failing spec runs exactly once and the
// record keeps the bare error text — queued, running, failed, nothing
// between.
func TestPermanentErrorFailsFast(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{Fleets: 1})
	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-err"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, rec.ID)
	if final.Error != "scenario exploded" {
		t.Errorf("error = %q, want the bare spec error", final.Error)
	}
	var stages []labd.Status
	for _, st := range final.Stages {
		stages = append(stages, st.Stage)
	}
	want := []labd.Status{labd.StatusQueued, labd.StatusRunning, labd.StatusFailed}
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
}

func TestEnqueueValidatesUpFront(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{})
	cases := []struct {
		name string
		req  labd.EnqueueRequest
		want string
	}{
		{"unknown spec", labd.EnqueueRequest{Spec: "nope"}, "unknown spec"},
		{"undeclared param", labd.EnqueueRequest{Spec: "labd-t-ok", Params: map[string]int{"bogus": 1}}, "declares no param"},
		{"below minimum", labd.EnqueueRequest{Spec: "labd-t-ok", Params: map[string]int{"labd-n": 0}}, "below minimum"},
		{"bad format", labd.EnqueueRequest{Spec: "labd-t-ok", Format: "xml"}, "unknown format"},
		{"seed without seed param", labd.EnqueueRequest{Spec: "labd-t-err", Seed: 9}, "declares no seed param"},
	}
	for _, c := range cases {
		if _, err := srv.Enqueue(c.req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	if n := len(srv.List()); n != 0 {
		t.Fatalf("invalid requests left %d records behind", n)
	}
}

func TestFIFOOrderSingleFleet(t *testing.T) {
	// Not parallel: owns the shared trace log.
	traceMu.Lock()
	traceLog = nil
	traceMu.Unlock()
	srv := openServer(t, labd.Config{Fleets: 1})
	const n = 6
	var last string
	for k := 1; k <= n; k++ {
		rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-trace", Params: map[string]int{"labd-k": k}})
		if err != nil {
			t.Fatal(err)
		}
		last = rec.ID
	}
	waitDone(t, srv, last)
	traceMu.Lock()
	defer traceMu.Unlock()
	if len(traceLog) != n {
		t.Fatalf("executed %d runs, want %d", len(traceLog), n)
	}
	for i, k := range traceLog {
		if k != i+1 {
			t.Fatalf("execution order %v is not FIFO", traceLog)
		}
	}
}

func TestDrainRejectsNewWorkAndTimesOutOnStuckRuns(t *testing.T) {
	// Not parallel: owns the block gate.
	release := resetBlock()
	defer release()
	srv := openServer(t, labd.Config{Fleets: 1})
	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-block"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the run is actually in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, _ := srv.Get(rec.ID)
		if r.Status == labd.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = srv.Close(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a stuck run returned nil before the run finished")
	}
	if srv.Ready() {
		t.Fatal("server still ready while draining")
	}
	if _, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("enqueue while draining: err = %v", err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("readyz while draining = %d %q", w.Code, w.Body)
	}

	// Release the run; a second Close must now drain cleanly.
	release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Close(ctx2); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	final := waitDone(t, srv, rec.ID)
	if final.Status != labd.StatusDone {
		t.Fatalf("in-flight run did not finish during drain: %+v", final)
	}
}
