package labd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"masterparasite/internal/artifact"
	_ "masterparasite/internal/experiments" // registers the paper's artifacts (flows)
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
)

// response is one API response as read off the wire.
type response struct {
	Status      int
	ContentType string
	Header      http.Header
	Body        []byte
}

// doFunc issues one API request and returns the response.
type doFunc func(t *testing.T, method, path string, body []byte) response

// httpTransport serves the daemon on a real loopback socket and issues
// each request through net/http.
func httpTransport(t *testing.T, srv *labd.Server) doFunc {
	t.Helper()
	base, shutdown, err := srv.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shutdown() })
	return func(t *testing.T, method, path string, body []byte) response {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return response{
			Status:      resp.StatusCode,
			ContentType: resp.Header.Get("Content-Type"),
			Header:      resp.Header,
			Body:        respBody,
		}
	}
}

// apiStep is one request of the API script and the answer it must get.
type apiStep struct {
	method, path, body string
	status             int
	contentType        string
	bodyHas            string // a substring the body must carry; "" checks nothing
}

// TestAPIScript drives one request script over a real loopback socket —
// health, spec introspection, enqueue, then, once the run is done, its
// record, events, artifact, the run list, and the error answers — and
// pins every step's status and content type. Every answer, the mux's
// own 405 included, must carry Cache-Control: no-store, and the 405
// must name the allowed methods. The served artifact must equal the
// batch render byte for byte and carry the batch manifest's
// fingerprint.
func TestAPIScript(t *testing.T) {
	t.Parallel()
	const (
		plain = "text/plain; charset=utf-8"
		js    = "application/json"
	)
	srv := openServer(t, labd.Config{Workers: 1})
	do := httpTransport(t, srv)
	drive := func(steps []apiStep) []response {
		t.Helper()
		out := make([]response, len(steps))
		for i, st := range steps {
			got := do(t, st.method, st.path, []byte(st.body))
			if got.Status != st.status || got.ContentType != st.contentType || !strings.Contains(string(got.Body), st.bodyHas) {
				t.Errorf("%s %s = %d %s %q, want %d %s containing %q",
					st.method, st.path, got.Status, got.ContentType, got.Body, st.status, st.contentType, st.bodyHas)
			}
			if cc := got.Header.Get("Cache-Control"); cc != "no-store" {
				t.Errorf("%s %s: Cache-Control = %q, want no-store", st.method, st.path, cc)
			}
			out[i] = got
		}
		return out
	}
	drive([]apiStep{
		{"GET", "/healthz", "", 200, plain, "ok\n"},
		{"GET", "/readyz", "", 200, plain, "ok\n"},
		{"GET", "/v1/specs", "", 200, js, `"id": "labd-t-ok"`},
		{"GET", "/v1/specs/labd-t-ok", "", 200, js, `"id": "labd-t-ok"`},
		{"GET", "/v1/specs/labd-t-missing", "", 404, plain, "unknown spec labd-t-missing\n"},
		{"POST", "/v1/runs", `{"spec":"labd-t-ok","params":{"labd-n":4},"format":"json"}`, 202, js, `"id": "run-000001"`},
		{"POST", "/v1/runs", `{"spec":"nope"}`, 400, plain, `unknown spec "nope"`},
	})
	waitDone(t, srv, "run-000001")
	got := drive([]apiStep{
		{"GET", "/v1/runs/run-000001", "", 200, js, `"status": "done"`},
		{"GET", "/v1/runs/run-000001/events", "", 200, "text/event-stream", "event: done\n"},
		{"GET", "/v1/runs/run-000001/artifact", "", 200, js, ""},
		{"GET", "/v1/runs", "", 200, js, `"id": "run-000001"`},
		{"GET", "/v1/runs/run-999999", "", 404, plain, "unknown run run-999999\n"},
		{"PUT", "/v1/runs", "", 405, plain, "Method Not Allowed\n"},
	})
	if allow := got[5].Header.Get("Allow"); allow != "GET, HEAD, POST" {
		t.Errorf("PUT /v1/runs: Allow = %q, want GET, HEAD, POST", allow)
	}

	// The artifact step must match the batch CLI byte-for-byte.
	spec, _ := artifact.Get("labd-t-ok")
	renderer, _ := artifact.RendererFor("json")
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), map[string]int{"labd-n": 4}, renderer)
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest("json", 1)
	manifest.Add(spec, res, rendered)
	if !bytes.Equal(got[2].Body, rendered) {
		t.Fatalf("served artifact diverges from batch render:\n%q\nvs\n%q", got[2].Body, rendered)
	}
	if fp, want := artifact.Fingerprint(got[2].Body), manifest.Artifacts[0].SHA256; fp != want {
		t.Fatalf("served fingerprint %s != batch manifest %s", fp, want)
	}
}

// TestTruncatedBodyIsRejected: a request body that fails mid-read is
// answered 400 with the read error and never routed — even when the
// bytes that did arrive form a valid enqueue request.
func TestTruncatedBodyIsRejected(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{})
	body := io.MultiReader(strings.NewReader(`{"spec":"labd-t-ok"}`), iotest.ErrReader(errors.New("connection reset")))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", body))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "connection reset") {
		t.Fatalf("truncated body = %d %q, want 400 naming the read error", w.Code, w.Body.String())
	}
	if n := len(srv.List()); n != 0 {
		t.Fatalf("truncated body enqueued %d runs", n)
	}
}

// TestRealArtifactOverRealHTTPMatchesBatchManifest enqueues a genuine
// registry artifact (the paper's message-flows figure) through the real
// net/http daemon, in text and in JSON, and asserts the served bytes
// equal the batch render and carry the same SHA-256 the batch CLI's
// manifest records — the acceptance criterion verbatim.
func TestRealArtifactOverRealHTTPMatchesBatchManifest(t *testing.T) {
	t.Parallel()
	for _, format := range []string{"text", "json"} {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			srv := openServer(t, labd.Config{Workers: 1})
			do := httpTransport(t, srv)

			resp := do(t, "POST", "/v1/runs", []byte(`{"spec":"flows","format":"`+format+`"}`))
			if resp.Status != http.StatusAccepted {
				t.Fatalf("enqueue = %d %q", resp.Status, resp.Body)
			}
			if !strings.Contains(string(resp.Body), `"id": "run-000001"`) {
				t.Fatalf("enqueue response: %q", resp.Body)
			}
			final := waitDone(t, srv, "run-000001")
			if final.Status != labd.StatusDone {
				t.Fatalf("flows run failed: %+v", final)
			}

			got := do(t, "GET", "/v1/runs/run-000001/artifact", nil)
			spec, _ := artifact.Get("flows")
			renderer, _ := artifact.RendererFor(format)
			res, rendered, err := artifact.RunRendered(spec, runner.New(1), nil, renderer)
			if err != nil {
				t.Fatal(err)
			}
			manifest := artifact.NewManifest(format, 1)
			manifest.Add(spec, res, rendered)
			if !bytes.Equal(got.Body, rendered) {
				t.Fatal("flows artifact served over net/http diverges from the batch render")
			}
			if final.SHA256 != manifest.Artifacts[0].SHA256 {
				t.Fatalf("served fingerprint %s != batch manifest %s", final.SHA256, manifest.Artifacts[0].SHA256)
			}
		})
	}
}

// TestFleetArtifactThroughDaemon drives a sharded-netsim fleet artifact
// through the real net/http daemon: the slash-scoped spec route must
// resolve fleet/infection-curve, the run must complete with the LAN/bot
// overrides applied, and the served bytes must fingerprint identically
// to the batch render — the same byte-identity contract the -parallel
// flag promises (the daemon's worker pool doubles as the fabric's shard
// worker count).
func TestFleetArtifactThroughDaemon(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{Workers: 4})
	do := httpTransport(t, srv)

	if resp := do(t, "GET", "/v1/specs/fleet/infection-curve", nil); resp.Status != http.StatusOK {
		t.Fatalf("slash-scoped spec route = %d %q", resp.Status, resp.Body)
	}
	resp := do(t, "POST", "/v1/runs", []byte(`{"spec":"fleet/infection-curve","params":{"lans":3,"bots":40},"format":"text"}`))
	if resp.Status != http.StatusAccepted {
		t.Fatalf("enqueue = %d %q", resp.Status, resp.Body)
	}
	final := waitDone(t, srv, "run-000001")
	if final.Status != labd.StatusDone {
		t.Fatalf("fleet run failed: %+v", final)
	}

	got := do(t, "GET", "/v1/runs/run-000001/artifact", nil)
	spec, _ := artifact.Get("fleet/infection-curve")
	renderer, _ := artifact.RendererFor("text")
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), map[string]int{"lans": 3, "bots": 40}, renderer)
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest("text", 1)
	manifest.Add(spec, res, rendered)
	if !bytes.Equal(got.Body, rendered) {
		t.Fatalf("fleet artifact served over net/http diverges from the sequential batch render:\n%q\nvs\n%q", got.Body, rendered)
	}
	if final.SHA256 != manifest.Artifacts[0].SHA256 {
		t.Fatalf("served fingerprint %s != batch manifest %s", final.SHA256, manifest.Artifacts[0].SHA256)
	}
}

// TestLiveSSEMatchesRecord subscribes to a run's event stream over a
// real socket while the run executes. The streamed bytes, read live
// until the server closes the stream after the terminal event, must
// equal AppendSSE over the finished record's stages as GET
// /v1/runs/{id} returns them: a stream replayed from the record carries
// exactly what a live subscriber saw.
func TestLiveSSEMatchesRecord(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{Fleets: 1, Workers: 1})
	do := httpTransport(t, srv)

	rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
	if err != nil {
		t.Fatal(err)
	}
	stream := do(t, "GET", "/v1/runs/"+rec.ID+"/events", nil) // returns at terminal-event close
	if stream.Status != http.StatusOK || stream.ContentType != "text/event-stream" {
		t.Fatalf("events = %d %s", stream.Status, stream.ContentType)
	}

	resp := do(t, "GET", "/v1/runs/"+rec.ID, nil)
	var final labd.Record
	if err := json.Unmarshal(resp.Body, &final); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	var want []byte
	for _, st := range final.Stages {
		want = labd.AppendSSE(want, labd.Event{Run: final.ID, Stage: st.Stage, At: st.At, Detail: st.Detail})
	}
	if !bytes.Equal(stream.Body, want) {
		t.Fatalf("live SSE stream diverges from the record's stages:\nlive:\n%s\nrecord:\n%s", stream.Body, want)
	}
	for _, want := range []string{"event: queued", "event: running", "event: rendering", "event: done", "sha256:"} {
		if !strings.Contains(string(stream.Body), want) {
			t.Errorf("stream missing %q:\n%s", want, stream.Body)
		}
	}
}

// TestConcurrentClientsOverRealHTTP is the race gate: many concurrent
// clients enqueue runs, stream their events, poll records, and fetch
// artifacts over a real socket while two fleets drain the queue. Run
// under -race this exercises every cross-goroutine seam in the daemon.
func TestConcurrentClientsOverRealHTTP(t *testing.T) {
	t.Parallel()
	srv := openServer(t, labd.Config{Fleets: 2, Workers: 1, Now: time.Now})
	base, shutdown, err := srv.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shutdown() })

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: "+format, append([]any{c}, args...)...)
			}
			body := fmt.Sprintf(`{"spec":"labd-t-ok","params":{"labd-n":%d,"labd-seed":%d},"format":"json"}`, c+1, c+2)
			resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				fail("enqueue: %v", err)
				return
			}
			enq, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				fail("enqueue = %d %q", resp.StatusCode, enq)
				return
			}
			id := runIDFromJSON(string(enq))
			if id == "" {
				fail("no id in %q", enq)
				return
			}

			// Stream events until the terminal stage closes the body.
			stream, err := http.Get(base + "/v1/runs/" + id + "/events")
			if err != nil {
				fail("stream: %v", err)
				return
			}
			sse, _ := io.ReadAll(stream.Body)
			stream.Body.Close()
			if !strings.Contains(string(sse), "event: done") {
				fail("stream ended without done:\n%s", sse)
				return
			}

			// The record must now be terminal and the artifact match the
			// batch render for this client's params.
			rec, err := http.Get(base + "/v1/runs/" + id)
			if err != nil {
				fail("record: %v", err)
				return
			}
			recBody, _ := io.ReadAll(rec.Body)
			rec.Body.Close()
			if !strings.Contains(string(recBody), `"status": "done"`) {
				fail("record not done after stream close: %q", recBody)
				return
			}
			art, err := http.Get(base + "/v1/runs/" + id + "/artifact")
			if err != nil {
				fail("artifact: %v", err)
				return
			}
			artBody, _ := io.ReadAll(art.Body)
			art.Body.Close()

			spec, _ := artifact.Get("labd-t-ok")
			renderer, _ := artifact.RendererFor("json")
			_, rendered, err := artifact.RunRendered(spec, runner.New(1),
				map[string]int{"labd-n": c + 1, "labd-seed": c + 2}, renderer)
			if err != nil {
				fail("batch render: %v", err)
				return
			}
			if !bytes.Equal(artBody, rendered) {
				fail("artifact diverges from batch render")
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
}

// runIDFromJSON pulls the "id" field out of an enqueue response without
// a full decode (the concurrent clients stay dependency-light).
func runIDFromJSON(s string) string {
	const key = `"id": "`
	i := strings.Index(s, key)
	if i < 0 {
		return ""
	}
	rest := s[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
