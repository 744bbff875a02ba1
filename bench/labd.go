package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing/fstest"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/labd"
)

// labdSpecs are the artifacts labd runs, cycled per op. Their compute is
// small, so the measurement is dominated by labd itself: queue, store
// commits, record and artifact serving.
var labdSpecs = []string{"table4", "flows", "table3"}

func labdLayers() []metricDef {
	return []metricDef{
		{"labd.post_ms", "ms"},
		{"labd.wait_ms", "ms"},
		{"labd.get_record_ms", "ms"},
		{"labd.get_artifact_ms", "ms"},
		{"labd.queue_wait_ms", "ms"},
		{"labd.exec_ms", "ms"},
		{"labd.persist_ms", "ms"},
		{"labd.store.commits_per_run", "count"},
		{"labd.store.syncs_per_run", "count"},
		{"labd.store.bytes_per_run", "B"},
		{"labd.store.write_ms", "ms"},
		{"labd.store.sync_ms", "ms"},
		{"labd.store.syncdir_ms", "ms"},
		{"labd.store.rename_ms", "ms"},
		{"labd.queue_depth_max", "count"},
	}
}

// labdBench drives a real labd daemon over loopback HTTP: each of its
// clients owns one keep-alive connection.
type labdBench struct {
	srv      *labd.Server
	base     string
	shutdown func() error
	mem      *memFS
	clients  []*http.Client
	want     map[string]string
	rotate   int
	fs       *timingFS // traced runs only
	runs     atomic.Int64

	mu                       sync.Mutex // guards the traced-phase samples
	queueWait, exec, persist []float64
	queueMax                 int
}

// labdStoreDir is the store directory inside the in-memory filesystem.
const labdStoreDir = "store"

func setupLabd(cfg config) (instance, error) {
	want, err := expectedFingerprints()
	if err != nil {
		return nil, err
	}
	l := &labdBench{mem: &memFS{m: fstest.MapFS{}}, want: want, rotate: int(uint64(cfg.seed) % uint64(len(labdSpecs)))}
	var fsys chaos.FS = l.mem
	if cfg.trace {
		l.fs = &timingFS{inner: l.mem}
		fsys = l.fs
	}
	l.srv, err = labd.Open(labd.Config{StoreDir: labdStoreDir, Fleets: workers, Workers: 1, FS: fsys})
	if err != nil {
		return nil, err
	}
	l.base, l.shutdown, err = l.srv.Serve()
	if err != nil {
		_ = l.srv.Close(context.Background()) // the Serve error is the one to report
		return nil, err
	}
	for i := 0; i < workers; i++ {
		l.clients = append(l.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	for i := 0; i < cfg.sizes.labdWarmup; i++ {
		if err := l.op(opCtx{index: i, client: i % workers}); err != nil {
			_ = l.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return l, nil
}

// op enqueues one run, follows its live event stream to the terminal
// event, then fetches its record and its artifact, checking the
// artifact's SHA-256 against the expected manifest.
func (l *labdBench) op(c opCtx) error {
	cl := l.clients[c.client]
	spec := labdSpecs[(c.index+l.rotate)%len(labdSpecs)]
	body, err := json.Marshal(labd.EnqueueRequest{Spec: spec, Format: "json"})
	if err != nil {
		return err
	}
	sp := c.span("labd.post")
	b, err := l.call(cl, http.MethodPost, "/v1/runs", body, http.StatusAccepted)
	sp.end()
	if err != nil {
		return err
	}
	var rec labd.Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("decode enqueued record: %w", err)
	}
	if c.tr != nil {
		depth := l.srv.QueueLen()
		l.mu.Lock()
		l.queueMax = max(l.queueMax, depth)
		l.mu.Unlock()
	}

	sp = c.span("labd.wait")
	b, err = l.call(cl, http.MethodGet, "/v1/runs/"+rec.ID+"/events", nil, http.StatusOK)
	sp.end()
	if err != nil {
		return err
	}
	if !bytes.Contains(b, []byte("event: done\n")) {
		return fmt.Errorf("run %s: event stream ended without done: %q", rec.ID, b)
	}

	sp = c.span("labd.get_record")
	b, err = l.call(cl, http.MethodGet, "/v1/runs/"+rec.ID, nil, http.StatusOK)
	sp.end()
	if err != nil {
		return err
	}
	rec = labd.Record{}
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("decode record: %w", err)
	}
	want := l.want[spec]
	if rec.Status != labd.StatusDone || rec.SHA256 != want {
		return fmt.Errorf("run %s (%s): status %s, sha256 %s, expected done with %s", rec.ID, spec, rec.Status, rec.SHA256, want)
	}

	sp = c.span("labd.get_artifact")
	b, err = l.call(cl, http.MethodGet, "/v1/runs/"+rec.ID+"/artifact", nil, http.StatusOK)
	sp.end()
	if err != nil {
		return err
	}
	if got := artifact.Fingerprint(b); got != want {
		return fmt.Errorf("run %s (%s): served artifact sha256 %s, expected %s", rec.ID, spec, got, want)
	}
	// labd never reads a done run's files again; removing them, behind
	// labd's back, keeps the in-memory store from growing over a run.
	for _, ext := range []string{".json", ".out"} {
		if err := l.mem.Remove(filepath.Join(labdStoreDir, rec.ID+ext)); err != nil {
			return err
		}
	}
	l.runs.Add(1)
	if c.tr != nil {
		l.noteStages(rec.Stages)
	}
	return nil
}

// noteStages records a done run's queue wait, execution and persist
// times from the stage timestamps of its record.
func (l *labdBench) noteStages(stages []labd.Stage) {
	at := make(map[labd.Status]time.Time, len(stages))
	for _, s := range stages {
		at[s.Stage] = s.At
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queueWait = append(l.queueWait, msOf(at[labd.StatusRunning].Sub(at[labd.StatusQueued])))
	l.exec = append(l.exec, msOf(at[labd.StatusRendering].Sub(at[labd.StatusRunning])))
	l.persist = append(l.persist, msOf(at[labd.StatusDone].Sub(at[labd.StatusRendering])))
}

// call makes one request and returns the whole response body, which
// also returns the connection to the client's keep-alive pool.
func (l *labdBench) call(cl *http.Client, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, b)
	}
	return b, nil
}

// layers reports the traced phase's spans and stage times; the store
// counters are per run over every run the instance served, warm-up
// included, since each run commits the same way.
func (l *labdBench) layers(tr *tracer) map[string]metric {
	st := tr.summary()
	l.mu.Lock()
	defer l.mu.Unlock()
	runs := l.runs.Load()
	perRun := func(v int64) metric { return metric{float64(v) / float64(max(runs, 1)), "count", int(runs)} }
	m := map[string]metric{
		"labd.post_ms":               spanMs(st, "labd.post"),
		"labd.wait_ms":               spanMs(st, "labd.wait"),
		"labd.get_record_ms":         spanMs(st, "labd.get_record"),
		"labd.get_artifact_ms":       spanMs(st, "labd.get_artifact"),
		"labd.queue_wait_ms":         {median(l.queueWait), "ms", len(l.queueWait)},
		"labd.exec_ms":               {median(l.exec), "ms", len(l.exec)},
		"labd.persist_ms":            {median(l.persist), "ms", len(l.persist)},
		"labd.store.commits_per_run": perRun(l.fs.renames.n.Load()),
		"labd.store.syncs_per_run":   perRun(l.fs.syncs.n.Load() + l.fs.syncDirs.n.Load()),
		"labd.store.write_ms":        l.fs.writes.meanMs(),
		"labd.store.sync_ms":         l.fs.syncs.meanMs(),
		"labd.store.syncdir_ms":      l.fs.syncDirs.meanMs(),
		"labd.store.rename_ms":       l.fs.renames.meanMs(),
		"labd.queue_depth_max":       {float64(l.queueMax), "count", len(l.queueWait)},
	}
	bytesPerRun := perRun(l.fs.bytes.Load())
	bytesPerRun.Unit = "B"
	m["labd.store.bytes_per_run"] = bytesPerRun
	return m
}

func (l *labdBench) close() error {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
	errShutdown := l.shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(errShutdown, l.srv.Close(ctx))
}

// memFS is an in-memory chaos.FS. labd's store commits through it as
// through the real filesystem — tmp write, fsync, rename, directory
// fsync, sealed records — but an fsync is free, as on tmpfs, so the
// benchmark measures labd and not the disk it shares with other work.
type memFS struct {
	mu sync.Mutex
	m  fstest.MapFS
}

func (f *memFS) MkdirAll(dir string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[dir] = &fstest.MapFile{Mode: fs.ModeDir | perm}
	return nil
}

func (f *memFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fs.ReadFile(f.m, name)
}

func (f *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fs.ReadDir(f.m, dir)
}

func (f *memFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[name] = &fstest.MapFile{Data: append([]byte(nil), data...), Mode: perm}
	return nil
}

func (f *memFS) Sync(name string) error       { return f.stat("fsync", name) }
func (f *memFS) SyncDir(dir string) error     { return f.stat("fsync", dir) }
func (f *memFS) Remove(name string) error     { return f.move("remove", name, "") }
func (f *memFS) Rename(from, to string) error { return f.move("rename", from, to) }

// stat fails like the os package when name does not exist.
func (f *memFS) stat(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m[name] == nil {
		return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	return nil
}

// move renames from to to, or removes from when to is empty.
func (f *memFS) move(op, from, to string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	file := f.m[from]
	if file == nil {
		return &fs.PathError{Op: op, Path: from, Err: fs.ErrNotExist}
	}
	delete(f.m, from)
	if to != "" {
		f.m[to] = file
	}
	return nil
}

// timingFS wraps the store's filesystem, counting and timing the four
// operations of an atomic commit: write, fsync, rename, directory fsync.
type timingFS struct {
	inner                            chaos.FS
	writes, syncs, syncDirs, renames opTimer
	bytes                            atomic.Int64
}

// opTimer counts calls to one filesystem operation and their total time.
type opTimer struct{ n, ns atomic.Int64 }

func (t *opTimer) since(t0 time.Time) {
	t.ns.Add(int64(time.Since(t0)))
	t.n.Add(1)
}

// meanMs is the mean time per call.
func (t *opTimer) meanMs() metric {
	n := t.n.Load()
	return metric{float64(t.ns.Load()) / 1e6 / float64(max(n, 1)), "ms", int(n)}
}

func (f *timingFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }
func (f *timingFS) ReadFile(name string) ([]byte, error)        { return f.inner.ReadFile(name) }
func (f *timingFS) ReadDir(dir string) ([]fs.DirEntry, error)   { return f.inner.ReadDir(dir) }
func (f *timingFS) Remove(name string) error                    { return f.inner.Remove(name) }

func (f *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer f.writes.since(time.Now())
	f.bytes.Add(int64(len(data)))
	return f.inner.WriteFile(name, data, perm)
}

func (f *timingFS) Sync(name string) error {
	defer f.syncs.since(time.Now())
	return f.inner.Sync(name)
}

func (f *timingFS) SyncDir(dir string) error {
	defer f.syncDirs.since(time.Now())
	return f.inner.SyncDir(dir)
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	defer f.renames.since(time.Now())
	return f.inner.Rename(oldpath, newpath)
}
