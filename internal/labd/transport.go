package labd

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

var _ http.Handler = (*Server)(nil)

// ServeHTTP serves the API over real net/http. Every route goes
// through the Route dispatch; the events route alone is upgraded from
// snapshot to live stream — events are written and flushed as the run
// progresses and the response ends after the terminal event, at which
// point the total bytes sent equal the Route snapshot of the finished
// run exactly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, ok := eventsRunID(r.URL.Path); ok && r.Method == http.MethodGet {
		s.serveEventStream(w, r, id)
		return
	}
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			// A truncated body must never be routed: its prefix may
			// still decode as a valid request.
			status, ctype, resp := errBody(http.StatusBadRequest, "read request body: "+err.Error())
			writeResponse(w, status, ctype, resp)
			return
		}
		if len(body) > maxBodyBytes {
			status, ctype, resp := errBody(http.StatusRequestEntityTooLarge, "request body too large")
			writeResponse(w, status, ctype, resp)
			return
		}
	}
	status, ctype, resp := s.Route(r.Method, r.URL.Path, body)
	writeResponse(w, status, ctype, resp)
}

// maxBodyBytes bounds an API request body; enqueue requests are tiny.
const maxBodyBytes = 1 << 20

func writeResponse(w http.ResponseWriter, status int, ctype string, body []byte) {
	setResponseHeaders(w.Header(), status, ctype)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// eventsRunID recognises /v1/runs/{id}/events paths.
func eventsRunID(path string) (string, bool) {
	p := strings.Trim(path, "/")
	rest, ok := strings.CutPrefix(p, "v1/runs/")
	if !ok {
		return "", false
	}
	id, ok := strings.CutSuffix(rest, "/events")
	if !ok || id == "" || strings.ContainsRune(id, '/') {
		return "", false
	}
	return id, true
}

// serveEventStream streams a run's progress as live SSE: recorded
// stages replay immediately, later transitions arrive as they happen,
// and the stream closes after the terminal event (or when the client
// disconnects).
func (s *Server) serveEventStream(w http.ResponseWriter, r *http.Request, id string) {
	ch, ok := s.Subscribe(id)
	if !ok {
		status, ctype, resp := errBody(http.StatusNotFound, "unknown run "+id)
		writeResponse(w, status, ctype, resp)
		return
	}
	setResponseHeaders(w.Header(), http.StatusOK, sseContentType)
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
// URL and a shutdown function — the programmatic twin of cmd/labd,
// used by tests and the smoke gate.
func (s *Server) Serve() (baseURL string, shutdown func() error, err error) {
	return serveListener(s)
}

// serveListener is split out so transport tests can reuse it.
func serveListener(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("labd listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	shutdown := func() error {
		err := srv.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
