package labd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"masterparasite/internal/artifact"
)

// API content types.
const (
	jsonContentType  = "application/json"
	plainContentType = "text/plain; charset=utf-8"
	sseContentType   = "text/event-stream"
)

// maxBodyBytes bounds an API request body; enqueue requests are tiny.
const maxBodyBytes = 1 << 20

// artifactContentType maps a render format to the content type the
// artifact endpoint serves it under.
func artifactContentType(format string) string {
	switch format {
	case "json":
		return jsonContentType
	case "csv":
		return "text/csv; charset=utf-8"
	case "md", "markdown":
		return "text/markdown; charset=utf-8"
	default:
		return plainContentType
	}
}

// routes builds the API's request multiplexer. Every pattern names its
// method, so the mux itself answers an unknown path 404 and a known
// path under another method 405 with an Allow header; a GET route also
// answers HEAD.
//
//	GET  /healthz                 → liveness ("ok")
//	GET  /readyz                  → readiness (503 while draining)
//	GET  /v1/specs                → artifact.All() as JSON
//	GET  /v1/specs/{id...}        → one spec (IDs such as fleet/infection-curve hold "/")
//	GET  /v1/runs                 → every run record, enqueue order
//	POST /v1/runs                 → enqueue (EnqueueRequest body), 202 + Record
//	GET  /v1/runs/{id}            → one run record
//	GET  /v1/runs/{id}/artifact   → rendered artifact bytes (done runs)
//	GET  /v1/runs/{id}/events     → progress events, a live SSE stream
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeOK(w)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		writeOK(w)
	})
	mux.HandleFunc("GET /v1/specs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, artifact.All())
	})
	mux.HandleFunc("GET /v1/specs/{id...}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spec, ok := artifact.Get(id)
		if !ok {
			http.Error(w, "unknown spec "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, spec)
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("POST /v1/runs", s.postRun)
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := s.Get(id)
		if !ok {
			http.Error(w, "unknown run "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/runs/{id}/artifact", s.getArtifact)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.streamEvents)
	return mux
}

var _ http.Handler = (*Server)(nil)

// ServeHTTP serves the API. Run state must never be cached, so every
// answer carries Cache-Control: no-store, the mux's own 404, 405 and
// redirect answers included.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	s.mux.ServeHTTP(w, r)
}

// writeOK answers a health probe with a plain-text "ok".
func writeOK(w http.ResponseWriter) {
	w.Header().Set("Content-Type", plainContentType)
	_, _ = io.WriteString(w, "ok\n")
}

// writeJSON answers with v as indented JSON plus a trailing newline —
// the same framing the manifest file uses.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	// A failed write means the client is gone; no one is left to tell.
	_, _ = w.Write(append(b, '\n'))
}

// postRun enqueues the EnqueueRequest in the body: 202 with the queued
// record, 400 for a request that fails validation, 503 while draining,
// and 500 when the store cannot commit the record — a valid request a
// client may retry.
func (s *Server) postRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		// A truncated body is never enqueued: its prefix may still
		// decode as a valid request.
		http.Error(w, "read request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	var req EnqueueRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	rec, err := s.Enqueue(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, rec)
	case errors.Is(err, errStore):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case s.draining.Load():
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// getArtifact serves a done run's rendered bytes: 404 for an unknown
// run, 409 for one not done, and 500 when its bytes cannot be read or
// fail their SHA-256 check.
func (s *Server) getArtifact(w http.ResponseWriter, r *http.Request) {
	b, rec, err := s.Artifact(r.PathValue("id"))
	switch {
	case err == nil:
		w.Header().Set("Content-Type", artifactContentType(rec.Format))
		_, _ = w.Write(b)
	case rec == nil:
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errStore):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusConflict)
	}
}

// streamEvents streams a run's progress as SSE: recorded stages replay
// at once, later transitions are written and flushed as they happen,
// and the response ends after the terminal event (or when the client
// goes away).
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, ok := s.Subscribe(id)
	if !ok {
		http.Error(w, "unknown run "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", sseContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var scratch []byte
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			scratch = AppendSSE(scratch[:0], ev)
			if _, err := w.Write(scratch); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Serve starts the daemon on a loopback listener and returns its base
// URL and a shutdown function — the programmatic twin of cmd/labd.
func (s *Server) Serve() (baseURL string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("labd listen: %w", err)
	}
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	shutdown = func() error {
		err := srv.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
