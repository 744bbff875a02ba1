package labd

import (
	"encoding/json"
	"net/http"
	"strings"

	"masterparasite/internal/artifact"
)

// API content types.
const (
	jsonContentType  = "application/json"
	plainContentType = "text/plain; charset=utf-8"
	sseContentType   = "text/event-stream"
)

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

// Route dispatches one API request and returns the response as a
// (status, content type, body) triple. It is the transport-independent
// core: ServeHTTP serves every route through it, so a direct call and a
// net/http request see the same bytes. Routes:
//
//	GET  /healthz                 → liveness ("ok")
//	GET  /readyz                  → readiness (503 while draining)
//	GET  /v1/specs                → artifact.Summaries() as JSON
//	GET  /v1/specs/{id}           → one spec summary
//	POST /v1/runs                 → enqueue (EnqueueRequest body), 202 + Record
//	GET  /v1/runs                 → every run record, enqueue order
//	GET  /v1/runs/{id}            → one run record
//	GET  /v1/runs/{id}/artifact   → rendered artifact bytes (done runs)
//	GET  /v1/runs/{id}/events     → recorded progress events, SSE-framed
//
// The events route returns the stage trail recorded so far as a
// complete SSE-framed body; over real net/http, ServeHTTP upgrades the
// same route to a live stream whose total bytes — once the run is
// terminal — equal this snapshot exactly.
func (s *Server) Route(method, path string, body []byte) (status int, contentType string, respBody []byte) {
	p := strings.Trim(path, "/")
	switch {
	case p == "healthz":
		return s.routeHealthz(method)
	case p == "readyz":
		return s.routeReadyz(method)
	case p == "v1/specs":
		return s.routeSpecs(method)
	case strings.HasPrefix(p, "v1/specs/"):
		return s.routeSpec(method, strings.TrimPrefix(p, "v1/specs/"))
	case p == "v1/runs":
		return s.routeRuns(method, body)
	case strings.HasPrefix(p, "v1/runs/"):
		rest := strings.TrimPrefix(p, "v1/runs/")
		id, sub, _ := strings.Cut(rest, "/")
		switch sub {
		case "":
			return s.routeRun(method, id)
		case "artifact":
			return s.routeArtifact(method, id)
		case "events":
			return s.routeEvents(method, id)
		}
	}
	return errBody(http.StatusNotFound, "404 page not found")
}

// errBody renders a small text body the way http.Error spells errors
// on the wire (it also serves the healthz/readyz "ok").
func errBody(status int, msg string) (int, string, []byte) {
	return status, plainContentType, []byte(msg + "\n")
}

// jsonBody marshals v as the response body (indented, trailing
// newline — the same framing the manifest file uses).
func jsonBody(status int, v any) (int, string, []byte) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return errBody(http.StatusInternalServerError, err.Error())
	}
	return status, jsonContentType, append(b, '\n')
}

func methodNotAllowed() (int, string, []byte) {
	return errBody(http.StatusMethodNotAllowed, "method not allowed")
}

func (s *Server) routeHealthz(method string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	return errBody(http.StatusOK, "ok")
}

func (s *Server) routeReadyz(method string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	if !s.Ready() {
		return errBody(http.StatusServiceUnavailable, "draining")
	}
	return errBody(http.StatusOK, "ok")
}

func (s *Server) routeSpecs(method string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	return jsonBody(http.StatusOK, artifact.Summaries())
}

func (s *Server) routeSpec(method, id string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	spec, ok := artifact.Get(id)
	if !ok {
		return errBody(http.StatusNotFound, "unknown spec "+id)
	}
	return jsonBody(http.StatusOK, spec.Summary())
}

func (s *Server) routeRuns(method string, body []byte) (int, string, []byte) {
	switch method {
	case http.MethodGet:
		return jsonBody(http.StatusOK, s.List())
	case http.MethodPost:
		var req EnqueueRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return errBody(http.StatusBadRequest, "bad request body: "+err.Error())
		}
		rec, err := s.Enqueue(req)
		if err != nil {
			if s.draining.Load() {
				return errBody(http.StatusServiceUnavailable, err.Error())
			}
			return errBody(http.StatusBadRequest, err.Error())
		}
		return jsonBody(http.StatusAccepted, rec)
	default:
		return methodNotAllowed()
	}
}

func (s *Server) routeRun(method, id string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	rec, ok := s.Get(id)
	if !ok {
		return errBody(http.StatusNotFound, "unknown run "+id)
	}
	return jsonBody(http.StatusOK, rec)
}

func (s *Server) routeArtifact(method, id string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	b, rec, err := s.Artifact(id)
	if err != nil {
		if rec == nil {
			return errBody(http.StatusNotFound, err.Error())
		}
		return errBody(http.StatusConflict, err.Error())
	}
	return http.StatusOK, artifactContentType(rec.Format), b
}

func (s *Server) routeEvents(method, id string) (int, string, []byte) {
	if method != http.MethodGet {
		return methodNotAllowed()
	}
	rec, ok := s.Get(id)
	if !ok {
		return errBody(http.StatusNotFound, "unknown run "+id)
	}
	var out []byte
	for _, ev := range eventsFromStages(id, rec.Stages) {
		out = AppendSSE(out, ev)
	}
	return http.StatusOK, sseContentType, out
}

// setResponseHeaders applies the API's response-header policy: run
// state must never be cached, and error bodies are never sniffed.
func setResponseHeaders(h http.Header, status int, contentType string) {
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-store")
	if status >= 400 {
		h.Set("X-Content-Type-Options", "nosniff")
	}
}
