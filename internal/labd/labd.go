// Package labd is the attack-lab orchestrator: a long-lived serving
// layer in front of the batch artifact registry. Where cmd/experiments
// regenerates artifacts one process per run, labd accepts run requests
// over an HTTP API, validates them up front against the
// internal/artifact registry, drains a FIFO job queue through a bounded
// set of scenario fleets (each run gets its own internal/runner pool),
// persists every run as a durable crash-safe record — status, resolved
// params, stage timestamps, and the rendered artifact with its
// manifest-style SHA-256 fingerprint — and streams progress events
// (queued → running → rendering → done/failed) as Server-Sent Events.
//
// ServeHTTP serves the API through one http.ServeMux (cmd/labd puts it
// on a listener). A run calls Spec.NewEnv, Spec.Exec and the renderer
// itself, committing a durable stage between them, and those are the
// calls artifact.RunRendered makes for the batch CLI. So a
// deterministic artifact renders byte-identically in both: the
// record's fingerprint equals the cmd/experiments manifest entry for
// the same spec, params, and format at any worker count.
//
// A run executes at most once. After a restart, runs still queued
// re-enter the queue and runs that were mid-flight end failed
// ("interrupted by restart"): their scenario state lived in memory.
package labd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/runner"
)

// Fleet-level chaos fault sites: the kill-points along a run's
// execution path that are not filesystem operations. Together with the
// store.* sites (internal/chaos), they cover every transition of
// enqueue → run → render → persist.
const (
	// SiteJobStart fires before a popped run transitions to running —
	// the process dying between dequeue and the first durable stage.
	SiteJobStart = "fleet.job.start"
	// SiteJobCrash fires after the artifact executed but before the
	// rendering stage — the classic "work done, commit lost" window.
	SiteJobCrash = "fleet.job.crash"
	// SiteJobRender fires after rendering but before the artifact bytes
	// are persisted.
	SiteJobRender = "fleet.job.render"
)

// FleetSites lists the fleet.* fault sites in execution order — with
// chaos.StoreSites, everything the kill-point recovery matrix sweeps.
var FleetSites = []string{SiteJobStart, SiteJobCrash, SiteJobRender}

// Config parameterises a Server.
type Config struct {
	// StoreDir is the durable run-record directory (required).
	StoreDir string
	// Fleets bounds how many runs execute concurrently — the number of
	// scheduler goroutines draining the queue. <= 0 selects 2.
	Fleets int
	// Workers is the per-run scenario pool width handed to
	// runner.New (0 = GOMAXPROCS, 1 = sequential). Deterministic
	// artifacts render identically at any value.
	Workers int
	// Now is the clock used for stage timestamps; nil selects
	// time.Now. Tests inject a fixed clock to make event bytes
	// deterministic across transports.
	Now func() time.Time
	// FS is the filesystem the store commits through; nil selects
	// chaos.OS, the real filesystem. The kill-point matrix injects
	// chaos.BindFS(ctrl) to fault it.
	FS chaos.FS
	// Chaos is the fault controller the fleet's own kill-points
	// (FleetSites) consult; nil fires nothing.
	Chaos *chaos.Controller
}

// Server is the orchestrator: store + index, queue, fleets, events.
// Construct with Open, which also recovers state from a previous
// process: still-queued runs are re-enqueued; runs that were mid-flight
// when the process died are marked failed ("interrupted by restart").
type Server struct {
	cfg   Config
	store *Store

	mu    sync.Mutex
	recs  map[string]*Record
	order []string // run IDs in enqueue order
	seq   int
	subs  subscribers

	queue *fifo
	wg    sync.WaitGroup
	mux   *http.ServeMux

	ready    atomic.Bool
	draining atomic.Bool
}

// Open loads (or creates) the store, recovers queued work from a
// previous process, and starts the fleet goroutines.
func Open(cfg Config) (*Server, error) {
	if cfg.Fleets <= 0 {
		cfg.Fleets = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := OpenStore(cfg.StoreDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	recs, err := store.Load()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: store,
		recs:  make(map[string]*Record, len(recs)),
		seq:   store.NextSeq(),
		subs:  make(subscribers),
		queue: newFIFO(),
	}
	s.mux = s.routes()
	for _, r := range recs {
		switch {
		case r.Status == StatusQueued:
			// Never started: queue it again, exactly where the last
			// process left it.
			s.queue.Push(r.ID)
		case !r.Status.Terminal():
			// The owning process died mid-run, and the scenario state
			// died with it: latch the failure durably.
			r.Status = StatusFailed
			r.Error = "interrupted by restart"
			r.Stages = append(r.Stages, Stage{Stage: StatusFailed, At: cfg.Now().UTC(), Detail: r.Error})
			if err := store.PutRecord(r); err != nil {
				return nil, err
			}
		}
		s.recs[r.ID] = r
		s.order = append(s.order, r.ID)
	}
	for i := 0; i < cfg.Fleets; i++ {
		s.wg.Add(1)
		go s.fleet()
	}
	s.ready.Store(true)
	return s, nil
}

// Store exposes the underlying run store (read-only use).
func (s *Server) Store() *Store { return s.store }

// Ready reports whether the server accepts and executes work: true
// after Open succeeds, false once draining begins.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Close drains the daemon: the queue stops handing out work (queued
// runs stay durably queued for the next process), in-flight runs finish,
// and Close returns when every fleet goroutine has exited or ctx
// expires — in which case the error reports how many runs were still
// in flight; their records latch "interrupted by restart" on next Open.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("labd: drain timed out: %w", ctx.Err())
	}
}

// EnqueueRequest is the POST /v1/runs body: which spec to run, param
// overrides, an optional seed (sugar for the "seed" param — rejected if
// the spec declares none), and the render format.
type EnqueueRequest struct {
	Spec   string         `json:"spec"`
	Params map[string]int `json:"params,omitempty"`
	Seed   int            `json:"seed,omitempty"`
	Format string         `json:"format,omitempty"`
}

// Enqueue validates a run request fully up front — spec exists, every
// override names a declared param, values clear their minima, the
// format has a renderer — then durably records the run as queued and
// hands it to the fleet queue. Nothing invalid ever enters the queue.
func (s *Server) Enqueue(req EnqueueRequest) (*Record, error) {
	spec, ok := artifact.Get(req.Spec)
	if !ok {
		return nil, fmt.Errorf("unknown spec %q (known: %s)", req.Spec, strings.Join(artifact.IDs(), " "))
	}
	declared := make(map[string]bool, len(spec.Params))
	for _, p := range spec.Params {
		declared[p.Name] = true
	}
	overrides := make(map[string]int, len(req.Params)+1)
	for name, v := range req.Params {
		if !declared[name] {
			return nil, fmt.Errorf("spec %s declares no param %q", req.Spec, name)
		}
		overrides[name] = v
	}
	if req.Seed != 0 {
		if !declared["seed"] {
			return nil, fmt.Errorf("spec %s declares no seed param", req.Spec)
		}
		overrides["seed"] = req.Seed
	}
	format := req.Format
	if format == "" {
		format = "text"
	}
	if _, err := artifact.RendererFor(format); err != nil {
		return nil, err
	}
	// Resolve defaults and validate bounds exactly as the batch CLI
	// does; the runner is not needed for validation.
	env, err := spec.NewEnv(nil, overrides)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, fmt.Errorf("draining: not accepting new runs")
	}
	rec := &Record{
		ID:            RunID(s.seq),
		Spec:          spec.ID,
		Title:         spec.Title,
		Section:       spec.Section,
		Params:        env.Params(),
		Seed:          spec.Seed,
		Deterministic: spec.Deterministic,
		Format:        format,
		Status:        StatusQueued,
		Stages:        []Stage{{Stage: StatusQueued, At: s.cfg.Now().UTC()}},
	}
	s.seq++
	s.recs[rec.ID] = rec
	s.order = append(s.order, rec.ID)
	err = s.store.PutRecord(rec)
	snap := rec.Clone()
	if err == nil {
		s.subs.publish(rec.ID, Event{Run: rec.ID, Stage: StatusQueued, At: rec.Stages[0].At})
	} else {
		// Never acknowledged: roll the ghost record back out of the
		// index so Get/List only ever show durable runs. The sequence
		// number stays consumed — IDs are never reissued, even for runs
		// that failed to persist.
		delete(s.recs, rec.ID)
		s.order = s.order[:len(s.order)-1]
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.queue.Push(rec.ID)
	return snap, nil
}

// Get returns a snapshot of one run record.
func (s *Server) Get(id string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return nil, false
	}
	return rec.Clone(), true
}

// List returns snapshots of every record in enqueue order.
func (s *Server) List() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, len(s.order))
	for i, id := range s.order {
		out[i] = s.recs[id].Clone()
	}
	return out
}

// QueueLen reports how many runs are waiting for a fleet.
func (s *Server) QueueLen() int { return s.queue.Len() }

// Artifact returns the rendered bytes of a done run.
func (s *Server) Artifact(id string) ([]byte, *Record, error) {
	rec, ok := s.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("unknown run %q", id)
	}
	if rec.Status != StatusDone {
		return nil, rec, fmt.Errorf("run %s is %s, not done", id, rec.Status)
	}
	b, err := s.store.GetArtifact(id)
	if err != nil {
		return nil, rec, err
	}
	// Artifact files are stored raw (no in-file checksum trailer); the
	// record's fingerprint is their integrity check. Re-verify on every
	// read so on-disk corruption surfaces as an error, never as wrong
	// bytes served with a matching-looking record.
	if fp := artifact.Fingerprint(b); fp != rec.SHA256 {
		return nil, rec, fmt.Errorf("%w: run %s artifact is corrupted: sha256 %s, record says %s", errStore, id, fp, rec.SHA256)
	}
	return b, rec, nil
}

// Subscribe returns the run's event stream: its recorded stages so far
// are replayed immediately, live transitions follow, and the channel
// closes after the terminal event. The second return is false for an
// unknown run.
func (s *Server) Subscribe(id string) (<-chan Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return nil, false
	}
	// Buffer the full replay plus headroom for live transitions: the
	// replay loop below must never block while the server lock is held,
	// and a record read back from the store carries the stages earlier
	// processes appended (a restart adds a failed stage to a mid-flight
	// run) on top of the ones this process may still append.
	ch := make(chan Event, len(rec.Stages)+maxStages)
	for _, ev := range eventsFromStages(id, rec.Stages) {
		ch <- ev
	}
	if rec.Status.Terminal() {
		close(ch)
	} else {
		s.subs.add(id, ch)
	}
	return ch, true
}

// Wait blocks until the run reaches a terminal status (or ctx expires)
// and returns its final record snapshot.
func (s *Server) Wait(ctx context.Context, id string) (*Record, error) {
	ch, ok := s.Subscribe(id)
	if !ok {
		return nil, fmt.Errorf("unknown run %q", id)
	}
	for {
		select {
		case _, open := <-ch:
			if !open {
				rec, _ := s.Get(id)
				return rec, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// setStage appends a lifecycle transition, durably persists the
// record, and publishes the event to live subscribers — in that order,
// so a client never sees a stage the disk does not hold. When the
// record cannot be persisted the transition is undone and the store
// error returned; the caller ends the run through fail. The one
// exception is failed itself: a run that cannot go on must still
// release its waiters, so a failed stage is published even when its
// write is lost. Its disk record then still shows an earlier stage,
// which the next Open latches failed.
func (s *Server) setStage(id string, st Status, detail string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recs[id]
	prev := *rec
	now := s.cfg.Now().UTC()
	rec.Status = st
	if st == StatusFailed {
		rec.Error = detail
		rec.Bytes, rec.SHA256 = 0, ""
	}
	rec.Stages = append(rec.Stages, Stage{Stage: st, At: now, Detail: detail})
	err := s.store.PutRecord(rec)
	if err != nil && (st != StatusFailed || chaos.IsKilled(err)) {
		*rec = prev
		return err
	}
	s.subs.publish(id, Event{Run: id, Stage: st, At: now, Detail: detail})
	return err
}

// fail ends a run failed with err's text. A chaos kill ends nothing: a
// dead process writes and publishes nothing further, which is exactly
// the debris the kill-point recovery matrix restarts over.
func (s *Server) fail(id string, err error) {
	if chaos.IsKilled(err) {
		return
	}
	// setStage has already published the failed stage; a lost write
	// leaves the earlier durable stage for recovery to handle.
	_ = s.setStage(id, StatusFailed, err.Error())
}

// fleet is one scheduler goroutine: pop → execute, until the queue
// closes.
func (s *Server) fleet() {
	defer s.wg.Done()
	for {
		id, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.execute(id)
	}
}

// execute drives one run through running → rendering → done/failed.
//
// Every failure goes through fail, which checks chaos.IsKilled: a Crash
// verdict models the process dying at that instant, so the goroutine
// returns without writing anything further — exactly what a killed
// process would leave behind. The kill-point recovery matrix restarts a
// server over the resulting disk state and asserts the invariants hold.
func (s *Server) execute(id string) {
	s.mu.Lock()
	rec := s.recs[id]
	specID, format, overrides := rec.Spec, rec.Format, rec.Clone().Params
	s.mu.Unlock()

	spec, ok := artifact.Get(specID)
	if !ok { // cannot happen: Enqueue validated against the registry
		s.fail(id, fmt.Errorf("spec %q vanished from the registry", specID))
		return
	}
	if err := s.step(id, SiteJobStart, StatusRunning, ""); err != nil {
		s.fail(id, err)
		return
	}
	env, err := spec.NewEnv(runner.New(s.cfg.Workers), overrides)
	if err != nil {
		s.fail(id, err)
		return
	}
	res, err := spec.Exec(env)
	if err != nil {
		s.fail(id, err)
		return
	}
	if err := s.step(id, SiteJobCrash, StatusRendering, format); err != nil {
		s.fail(id, err)
		return
	}
	renderer, err := artifact.RendererFor(format)
	if err != nil { // cannot happen: Enqueue validated the format
		s.fail(id, err)
		return
	}
	var buf bytes.Buffer
	if err := renderer.Render(&buf, res); err != nil {
		s.fail(id, err)
		return
	}
	rendered := buf.Bytes()
	if err := s.cfg.Chaos.Hit(SiteJobRender).Err(SiteJobRender); err != nil {
		s.fail(id, err)
		return
	}
	if err := s.store.PutArtifact(id, rendered); err != nil {
		s.fail(id, err)
		return
	}
	fp := artifact.Fingerprint(rendered)
	s.mu.Lock()
	rec.Bytes = len(rendered)
	rec.SHA256 = fp
	s.mu.Unlock()
	if err := s.setStage(id, StatusDone, "sha256:"+fp); err != nil {
		s.fail(id, err)
	}
}

// step crosses a fleet kill-point, then enters the next stage.
func (s *Server) step(id, site string, st Status, detail string) error {
	if err := s.cfg.Chaos.Hit(site).Err(site); err != nil {
		return err
	}
	return s.setStage(id, st, detail)
}
