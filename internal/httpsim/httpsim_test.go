package httpsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

func TestRequestMarshalParseRoundTrip(t *testing.T) {
	req := NewRequest("GET", "example.com", "/js/app.js?v=3")
	req.Header.Set("User-Agent", "sim/1.0")
	req.Header.Set("If-None-Match", `"abc"`)
	out, n, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if n != len(req.Marshal()) {
		t.Fatalf("consumed %d, want %d", n, len(req.Marshal()))
	}
	if out.Method != "GET" || out.Host != "example.com" || out.Path != "/js/app.js?v=3" {
		t.Fatalf("bad round trip: %+v", out)
	}
	if out.Header.Get("user-agent") != "sim/1.0" {
		t.Fatal("case-insensitive header lookup failed")
	}
}

func TestRequestWithBody(t *testing.T) {
	req := NewRequest("POST", "example.com", "/login")
	req.Body = []byte("user=alice&pass=secret")
	out, _, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if !bytes.Equal(out.Body, req.Body) {
		t.Fatalf("body = %q", out.Body)
	}
}

func TestResponseMarshalParseRoundTrip(t *testing.T) {
	resp := NewResponse(200, []byte("console.log(1)"))
	resp.Header.Set("Content-Type", "application/javascript")
	resp.Header.Set("Cache-Control", "max-age=31536000")
	out, _, err := ParseResponse(resp.Marshal())
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if out.StatusCode != 200 || out.Status != "OK" {
		t.Fatalf("status = %d %q", out.StatusCode, out.Status)
	}
	if out.Header.Get("Cache-Control") != "max-age=31536000" {
		t.Fatal("header lost")
	}
	if !bytes.Equal(out.Body, resp.Body) {
		t.Fatalf("body = %q", out.Body)
	}
}

func TestParseIncomplete(t *testing.T) {
	full := NewResponse(200, []byte("abcdef")).Marshal()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ParseResponse(full[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes parsed as complete", cut)
		}
	}
	if _, _, err := ParseResponse(full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"NOT-HTTP\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeader\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
	}
	for _, c := range cases {
		if _, _, err := ParseResponse([]byte(c)); err == nil {
			t.Errorf("malformed %q parsed", c)
		}
	}
	if _, _, err := ParseRequest([]byte("GET /\r\n\r\n")); err == nil {
		t.Error("malformed request line parsed")
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		resp := NewResponse(200, body)
		out, n, err := ParseResponse(resp.Marshal())
		return err == nil && n == len(resp.Marshal()) && bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryAndPathOnly(t *testing.T) {
	req := NewRequest("GET", "a.com", "/x/y.js?t=500198&cb=9")
	if got := req.Query("t"); got != "500198" {
		t.Fatalf("Query(t) = %q", got)
	}
	if got := req.Query("cb"); got != "9" {
		t.Fatalf("Query(cb) = %q", got)
	}
	if got := req.Query("nope"); got != "" {
		t.Fatalf("Query(nope) = %q", got)
	}
	if got := req.PathOnly(); got != "/x/y.js" {
		t.Fatalf("PathOnly = %q", got)
	}
	if got := req.URL(); got != "a.com/x/y.js?t=500198&cb=9" {
		t.Fatalf("URL = %q", got)
	}
}

func TestHeaderOps(t *testing.T) {
	h := Header{}
	h.Set("x-frame-options", "DENY")
	if !h.Has("X-Frame-Options") {
		t.Fatal("Has failed")
	}
	h.Del("X-FRAME-OPTIONS")
	if h.Has("X-Frame-Options") {
		t.Fatal("Del failed")
	}
}

func newHTTPLab(t *testing.T) (*netsim.Network, *netsim.Segment, *Client, *tcpsim.Stack) {
	t.Helper()
	n := netsim.New()
	seg := n.MustSegment("net", time.Millisecond)
	cIfc := seg.MustAttach("client", 0, nil)
	sIfc := seg.MustAttach("server", 4*time.Millisecond, nil)
	client := NewClient(tcpsim.NewStack(n, cIfc, tcpsim.WithSeed(3)))
	serverStack := tcpsim.NewStack(n, sIfc, tcpsim.WithSeed(5))
	return n, seg, client, serverStack
}

func TestClientServerEndToEnd(t *testing.T) {
	n, _, client, serverStack := newHTTPLab(t)
	srv, err := NewServer(serverStack, 80, nil, func(req *Request) *Response {
		if req.PathOnly() != "/lib.js" {
			return NewResponse(404, nil)
		}
		resp := NewResponse(200, []byte("var x=1;"))
		resp.Header.Set("Content-Type", "application/javascript")
		return resp
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var got *Response
	client.Do("server", 80, false, NewRequest("GET", "cdn.example.com", "/lib.js"), func(r *Response, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		got = r
	})
	n.Run(0)
	if got == nil {
		t.Fatal("no response")
	}
	if got.StatusCode != 200 || string(got.Body) != "var x=1;" {
		t.Fatalf("response = %d %q", got.StatusCode, got.Body)
	}
	if srv.Requests() != 1 {
		t.Fatalf("server requests = %d", srv.Requests())
	}
}

func TestLargeResponseAcrossSegments(t *testing.T) {
	n, _, client, serverStack := newHTTPLab(t)
	body := bytes.Repeat([]byte("0123456789"), 2000) // 20 KB > several MSS
	if _, err := NewServer(serverStack, 80, nil, func(*Request) *Response {
		return NewResponse(200, body)
	}); err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var got *Response
	client.Do("server", 80, false, NewRequest("GET", "big.com", "/big.js"), func(r *Response, err error) { got = r })
	n.Run(0)
	if got == nil || !bytes.Equal(got.Body, body) {
		t.Fatal("large body corrupted")
	}
}

func TestInjectedResponseWinsEndToEnd(t *testing.T) {
	// Full-stack reproduction of Fig. 2 steps 1-2: the attacker's spoofed
	// HTTP response is what the HTTP client parses; the genuine one is
	// discarded by the transport.
	n, seg, client, serverStack := newHTTPLab(t)
	if _, err := NewServer(serverStack, 80, nil, func(*Request) *Response {
		return NewResponse(200, []byte("GENUINE"))
	}); err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	evil := NewResponse(200, []byte("PARASITE"))
	evil.Header.Set("Cache-Control", "max-age=31536000")
	evilBytes := evil.Marshal()

	var sniffer *tcpsim.Sniffer
	sniffer = tcpsim.NewSniffer(seg, 0, func(o tcpsim.Observed) {
		if o.Seg.DstPort == 80 && len(o.Seg.Payload) > 0 &&
			bytes.HasPrefix(o.Seg.Payload, []byte("GET ")) {
			sniffer.Inject(o, evilBytes)
		}
	})

	var got *Response
	client.Do("server", 80, false, NewRequest("GET", "somesite.com", "/my.js"), func(r *Response, err error) { got = r })
	n.Run(0)
	if got == nil {
		t.Fatal("no response")
	}
	if string(got.Body) != "PARASITE" {
		t.Fatalf("client parsed %q, want PARASITE", got.Body)
	}
	if got.Header.Get("Cache-Control") != "max-age=31536000" {
		t.Fatal("attacker-controlled cache headers lost")
	}
}

func TestNilHandlerResponseBecomes500(t *testing.T) {
	n, _, client, serverStack := newHTTPLab(t)
	if _, err := NewServer(serverStack, 80, nil, func(*Request) *Response { return nil }); err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var got *Response
	client.Do("server", 80, false, NewRequest("GET", "h.com", "/"), func(r *Response, err error) { got = r })
	n.Run(0)
	if got == nil || got.StatusCode != 500 {
		t.Fatalf("got %+v, want 500", got)
	}
}

func TestStatusTexts(t *testing.T) {
	for code, want := range map[int]string{200: "OK", 304: "Not Modified", 404: "Not Found", 999: "Unknown"} {
		if got := NewResponse(code, nil).Status; got != want {
			t.Errorf("status %d = %q, want %q", code, got, want)
		}
	}
}

func TestMarshalDeterministicHeaderOrder(t *testing.T) {
	r := NewResponse(200, nil)
	r.Header.Set("B-Header", "2")
	r.Header.Set("A-Header", "1")
	m := string(r.Marshal())
	if strings.Index(m, "A-Header") > strings.Index(m, "B-Header") {
		t.Fatal("headers not sorted deterministically")
	}
}

// TestParseResponseZeroCopyBody pins the zero-copy contract: the parsed
// body is a view of the wire buffer, not a copy, and is capacity-clamped
// so appending to it cannot scribble past the message.
func TestParseResponseZeroCopyBody(t *testing.T) {
	resp := NewResponse(200, []byte("payload"))
	wire := resp.Marshal()
	out, n, err := ParseResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Body) != "payload" {
		t.Fatalf("body = %q", out.Body)
	}
	if &out.Body[0] != &wire[n-len(out.Body)] {
		t.Fatal("body was copied; want a view of the wire buffer")
	}
	if cap(out.Body) != len(out.Body) {
		t.Fatal("body capacity not clamped to its length")
	}
}

// TestMessageCodecAllocs locks in the allocation budget of the HTTP
// codec under the crawler, the proxy cache, the C&C channel and the
// master's sniffer. Skipped in -short mode: the CI race detector
// perturbs counts.
func TestMessageCodecAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	resp := NewResponse(200, bytes.Repeat([]byte("b"), 4096))
	resp.Header.Set("Cache-Control", "max-age=60")
	respWire := resp.Marshal()
	req := NewRequest("GET", "cdn.example.com", "/lib.js?v=1")
	req.Header.Set("User-Agent", "Chrome/86.0")
	req.Header.Set("Cookie", "sid=1")
	reqWire := req.Marshal()
	buf := resp.Marshal()
	three := NewResponse(200, bytes.Repeat([]byte("c"), 512))
	three.Header.Set("Cache-Control", "max-age=60")
	three.Header.Set("Content-Type", "application/javascript")
	three.Header.Set("Etag", `"v1"`)
	var clone *Response

	for _, c := range []struct {
		name   string
		budget float64 // measured with Go 1.24.0
		op     func() error
	}{
		// The head string and the message, which holds up to three
		// header fields inline; the body is zero-copy.
		{"ParseResponse", 2, func() error { _, _, err := ParseResponse(respWire); return err }},
		{"ParseRequest", 2, func() error { _, _, err := ParseRequest(reqWire); return err }},
		// The sniffer's miss on a response is refused before any copy.
		{"ParseRequest(response)", 0, func() error {
			if _, _, err := ParseRequest(respWire); err != ErrMalformed {
				return fmt.Errorf("err = %v, want the bare ErrMalformed", err)
			}
			return nil
		}},
		// The exact-size message.
		{"Response.Marshal", 1, func() error { resp.Marshal(); return nil }},
		{"Request.Marshal", 1, func() error { req.Marshal(); return nil }},
		// Into the buffer the client and the server reuse.
		{"AppendMarshal(reused)", 0, func() error {
			buf = req.AppendMarshal(buf[:0])
			buf = resp.AppendMarshal(buf[:0])
			return nil
		}},
		{"Header.Set(existing)", 0, func() error { req.Header.Set("Cookie", "sid=2"); return nil }},
		// The struct and the body: three fields fit the copy's own
		// inline storage.
		{"Response.Clone", 2, func() error {
			if clone = three.Clone(); len(clone.Header) != 3 {
				return fmt.Errorf("clone has %d fields", len(clone.Header))
			}
			return nil
		}},
	} {
		var err error
		got := testing.AllocsPerRun(500, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if got > c.budget {
			t.Errorf("%s allocs/op = %.0f, want <= %.0f", c.name, got, c.budget)
		}
	}
}

// TestExchangeAllocs budgets one plaintext GET over a clean segment,
// from Client.Do to its callback, on warm stacks: the two connections,
// the exchange and the server's connection state, the two parsed
// messages with their head strings, and the response's body buffer
// (the request has no body, so it buffers nothing). The handler answers
// with a prebuilt response, so the count is the HTTP and transport
// layers alone. Skipped in -short mode: the CI race detector perturbs
// counts.
func TestExchangeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	const budget = 9 // measured with Go 1.24.0
	if got := exchangeAllocs(t, []byte("var x=1;")); got > budget {
		t.Errorf("exchange allocs/op = %.1f, want <= %d", got, budget)
	}
}

// TestMultiSegmentExchangeAllocs is TestExchangeAllocs for the eviction
// flood's junk object: a 4 KiB body that arrives in three segments
// still costs one body buffer, reserved once from the head's
// Content-Length. Skipped in -short mode: the CI race detector perturbs
// counts.
func TestMultiSegmentExchangeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	const budget = 9 // measured with Go 1.24.0
	if got := exchangeAllocs(t, bytes.Repeat([]byte("j"), 4096)); got > budget {
		t.Errorf("exchange allocs/op = %.1f, want <= %d", got, budget)
	}
}

// exchangeAllocs measures the allocations of one GET answered with body,
// from Client.Do to its callback, on warm stacks.
func exchangeAllocs(t *testing.T, body []byte) float64 {
	t.Helper()
	n, _, client, serverStack := newHTTPLab(t)
	resp := NewResponse(200, body)
	resp.Header.Set("Content-Type", "application/javascript")
	resp.Header.Set("Cache-Control", "max-age=60")
	if _, err := NewServer(serverStack, 80, nil, func(*Request) *Response { return resp }); err != nil {
		t.Fatal(err)
	}
	req := NewRequest("GET", "cdn.example.com", "/lib.js")
	req.Header.Set("User-Agent", "sim/1.0")
	done := 0
	cb := func(r *Response, err error) {
		if err == nil && r.StatusCode == 200 && bytes.Equal(r.Body, body) {
			done++
		}
	}
	get := func() {
		client.Do("server", 80, false, req, cb)
		n.Run(0)
	}
	for i := 0; i < 16; i++ {
		get() // warm the frame pool, the event slab, the connection maps and the marshal buffers
	}
	before := done
	got := testing.AllocsPerRun(200, get)
	if done-before != 201 { // AllocsPerRun runs get once more to warm up
		t.Fatalf("%d of 201 exchanges completed", done-before)
	}
	t.Logf("exchange of a %d-byte body: allocs/op = %.1f", len(body), got)
	return got
}

// TestParseOversizedContentLength feeds both parsers Content-Length
// values near MaxInt64, where bodyOff+clen wraps negative: each must
// return an error instead of slicing past the buffer.
func TestParseOversizedContentLength(t *testing.T) {
	for _, clen := range []string{"9223372036854775807", "9223372036854775800", "9223372036854775780"} {
		hdr := "Content-Length: " + clen + "\r\n\r\nbody"
		if _, _, err := ParseRequest([]byte("POST / HTTP/1.1\r\n" + hdr)); err == nil {
			t.Errorf("request with Content-Length %s parsed", clen)
		}
		if _, _, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\n" + hdr)); err == nil {
			t.Errorf("response with Content-Length %s parsed", clen)
		}
	}
}
