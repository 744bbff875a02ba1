package browser

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/cnc"
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

// web is a test fixture: one server address hosting any number of vhosts.
type web struct {
	net    *netsim.Network
	seg    *netsim.Segment
	pages  map[string]*httpsim.Response // "host/path" → response
	served map[string]int
}

func newWeb(t *testing.T) *web {
	t.Helper()
	w := &web{
		net:    netsim.New(),
		pages:  make(map[string]*httpsim.Response),
		served: make(map[string]int),
	}
	w.seg = w.net.MustSegment("wifi", time.Millisecond)
	srvIfc := w.seg.MustAttach("webserver", 4*time.Millisecond, nil)
	stack := tcpsim.NewStack(w.net, srvIfc, tcpsim.WithSeed(99))
	handler := func(req *httpsim.Request) *httpsim.Response {
		key := req.Host + req.Path
		w.served[key]++
		if resp, ok := w.pages[key]; ok {
			// If-None-Match revalidation.
			if inm := req.Header.Get("If-None-Match"); inm != "" && inm == resp.Header.Get("Etag") {
				return httpsim.NewResponse(304, nil)
			}
			return resp.Clone()
		}
		// Fall back to name-matching ignoring the query string, so
		// cache-buster URLs still resolve to the object.
		if i := strings.IndexByte(key, '?'); i >= 0 {
			if resp, ok := w.pages[key[:i]]; ok {
				return resp.Clone()
			}
		}
		return httpsim.NewResponse(404, []byte("not found"))
	}
	if _, err := httpsim.NewServer(stack, 80, nil, handler); err != nil {
		t.Fatalf("web server: %v", err)
	}
	return w
}

func (w *web) addPage(host, path, body string, hdr map[string]string) {
	resp := httpsim.NewResponse(200, []byte(body))
	for k, v := range hdr {
		resp.Header.Set(k, v)
	}
	if !resp.Header.Has("Cache-Control") {
		resp.Header.Set("Cache-Control", "max-age=3600")
	}
	w.pages[host+path] = resp
}

func (w *web) resolver() Resolver {
	return func(host string) (Endpoint, bool) {
		return Endpoint{Addr: "webserver", Port: 80}, true
	}
}

// host attaches a host to the fixture's WiFi and returns its transport.
func (w *web) host(t *testing.T, addr netsim.Addr, seed int64) *tcpsim.Stack {
	t.Helper()
	ifc, err := w.seg.Attach(addr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tcpsim.NewStack(w.net, ifc, tcpsim.WithSeed(seed))
}

func (w *web) browser(t *testing.T, name string) *Browser {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(w.net, w.host(t, netsim.Addr("victim-"+name), 7), Config{
		Profile: p, OS: Win10, Resolver: w.resolver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fetch runs one browser fetch of url for a site.com page to
// completion and returns the response it served.
func (w *web) fetch(t *testing.T, b *Browser, url string, opts fetchOpts) *httpsim.Response {
	t.Helper()
	var got *httpsim.Response
	b.fetch("site.com", url, opts, func(resp *httpsim.Response, err error) {
		if err != nil {
			t.Errorf("fetch %s: %v", url, err)
		}
		got = resp
	})
	w.net.Run(0)
	return got
}

func (w *web) visit(t *testing.T, b *Browser, host, path string) *Page {
	t.Helper()
	var page *Page
	var verr error
	b.VisitWith(host, path, VisitOpts{}, func(p *Page, err error) { page, verr = p, err })
	w.net.Run(0)
	if verr != nil {
		t.Fatalf("visit %s%s: %v", host, path, verr)
	}
	if page == nil {
		t.Fatalf("visit %s%s: no page", host, path)
	}
	return page
}

func TestVisitLoadsAndCachesResources(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/", `<html><body><script src="/app.js"></script><img src="/logo.png"></body></html>`, nil)
	w.addPage("site.com", "/app.js", "var a=1;", map[string]string{"Content-Type": "application/javascript"})
	w.addPage("site.com", "/logo.png", "PNGDATA", nil)

	b := w.browser(t, "Chrome")
	page := w.visit(t, b, "site.com", "/")
	if len(page.Scripts) != 1 || string(page.Scripts[0].Content) != "var a=1;" {
		t.Fatalf("scripts = %+v", page.Scripts)
	}
	if !b.Cache().Contains("site.com", "site.com/app.js") {
		t.Fatal("script not cached")
	}
	first := b.NetFetches()

	// Second visit: everything served from cache.
	w.visit(t, b, "site.com", "/")
	if b.NetFetches() != first {
		t.Fatalf("second visit hit network: %d → %d", first, b.NetFetches())
	}
	if b.CacheServes() == 0 {
		t.Fatal("no cache serves recorded")
	}
}

func TestConditionalRevalidation304(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/lib.js", "lib", map[string]string{
		"Cache-Control": "max-age=1", "Etag": `"v1"`,
	})
	w.addPage("site.com", "/", `<html><body><script src="/lib.js"></script></body></html>`, nil)
	b := w.browser(t, "Chrome")
	w.visit(t, b, "site.com", "/")
	// Let the entry go stale, then revisit: expect an If-None-Match
	// round trip answered 304, serving from cache.
	w.net.RunUntil(w.net.Now() + 5*time.Second)
	w.addPage("site.com", "/", `<html><body><script src="/lib.js"></script></body></html>`,
		map[string]string{"Cache-Control": "max-age=0"})
	page := w.visit(t, b, "site.com", "/")
	if len(page.Scripts) != 1 || string(page.Scripts[0].Content) != "lib" {
		t.Fatal("revalidated script lost")
	}
}

// TestCachedErrorKeepsItsStatus: a 404 the HTTP cache stored
// (heuristic freshness) is served back as the same 404, not as the
// 200 OK the cache used to stamp on every hit.
func TestCachedErrorKeepsItsStatus(t *testing.T) {
	w := newWeb(t)
	b := w.browser(t, "Chrome")
	var got []string
	for i := 0; i < 2; i++ {
		b.fetch("site.com", "site.com/missing.js", fetchOpts{}, func(resp *httpsim.Response, err error) {
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
				return
			}
			got = append(got, fmt.Sprintf("%d %s", resp.StatusCode, resp.Status))
		})
		w.net.Run(0)
	}
	if want := []string{"404 Not Found", "404 Not Found"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("network, then cache: %q, want %q", got, want)
	}
	if w.served["site.com/missing.js"] != 1 || b.CacheServes() != 1 {
		t.Fatalf("served %d times, %d cache serves: want the second fetch from the cache",
			w.served["site.com/missing.js"], b.CacheServes())
	}
}

func TestCacheBusterBypassesCache(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/app.js", "orig", nil)
	b := w.browser(t, "Chrome")
	got := ""
	b.fetch("site.com", "site.com/app.js?t=12345", fetchOpts{}, func(resp *httpsim.Response, err error) {
		if err != nil {
			t.Errorf("fetch: %v", err)
			return
		}
		got = string(resp.Body)
	})
	w.net.Run(0)
	if got != "orig" {
		t.Fatalf("cache-buster fetch got %q", got)
	}
	// Distinct cache keys: both URLs now independently cached.
	if !b.Cache().Contains("site.com", "site.com/app.js?t=12345") {
		t.Fatal("query URL not cached under its own key")
	}
}

func TestScriptBehaviourExecutes(t *testing.T) {
	w := newWeb(t)
	infected := script.Embed([]byte("var x=1;"), "probe", "payload-7")
	w.addPage("site.com", "/", `<html><body><script src="/x.js"></script></body></html>`, nil)
	w.pages["site.com/x.js"] = httpsim.NewResponse(200, infected)
	w.pages["site.com/x.js"].Header.Set("Cache-Control", "max-age=60")

	b := w.browser(t, "Chrome")
	var sawPayload, sawOrigin string
	b.ScriptRuntime().Register("probe", func(env script.Env, payload string) error {
		sawPayload = payload
		sawOrigin = env.PageHost()
		env.SetCookie("mark", "1")
		env.LocalStorage()["k"] = "v"
		return nil
	})
	w.visit(t, b, "site.com", "/")
	if sawPayload != "payload-7" || sawOrigin != "site.com" {
		t.Fatalf("behaviour saw payload=%q origin=%q", sawPayload, sawOrigin)
	}
	if v, ok := b.Cookies().Get("site.com", "mark"); !ok || v != "1" {
		t.Fatal("SetCookie failed")
	}
	if b.LocalStorage("site.com")["k"] != "v" {
		t.Fatal("localStorage failed")
	}
}

func TestSOPCookieIsolation(t *testing.T) {
	w := newWeb(t)
	w.addPage("a.com", "/", `<html><body><script src="/s.js"></script></body></html>`, nil)
	w.pages["a.com/s.js"] = httpsim.NewResponse(200, script.Embed(nil, "spy", ""))
	b := w.browser(t, "Chrome")
	b.Cookies().Set("bank.com", "session", "secret")
	var ownCookies, foreignCookies string
	b.ScriptRuntime().Register("spy", func(env script.Env, _ string) error {
		env.SetCookie("own", "1")
		ownCookies = env.Cookies("a.com")
		foreignCookies = env.Cookies("bank.com")
		return nil
	})
	w.visit(t, b, "a.com", "/")
	if !strings.Contains(ownCookies, "own=1") {
		t.Fatalf("own cookies = %q", ownCookies)
	}
	if foreignCookies != "" {
		t.Fatalf("SOP violated: read %q from bank.com", foreignCookies)
	}
}

func TestSRIBlocksTamperedScript(t *testing.T) {
	w := newWeb(t)
	genuine := &script.Script{Content: []byte("genuine()")}
	html := fmt.Sprintf(`<html><body><script src="/g.js" integrity="sha256-%s"></script></body></html>`, genuine.SHA256())
	w.addPage("site.com", "/", html, nil)
	w.addPage("site.com", "/g.js", "TAMPERED()", nil)
	b := w.browser(t, "Chrome")
	page := w.visit(t, b, "site.com", "/")
	if len(page.Scripts) != 0 {
		t.Fatal("tampered script executed despite SRI")
	}
	if b.SRIBlocked() != 1 {
		t.Fatalf("sri blocked = %d", b.SRIBlocked())
	}
	// Matching content passes.
	w.addPage("site.com", "/g.js", "genuine()", nil)
	b2 := w.browser(t, "Firefox")
	page2 := w.visit(t, b2, "site.com", "/")
	if len(page2.Scripts) != 1 {
		t.Fatal("genuine script blocked")
	}
}

func TestCSPBlocksCrossOriginFrame(t *testing.T) {
	w := newWeb(t)
	w.addPage("strict.com", "/", `<html><body><script src="/s.js"></script></body></html>`,
		map[string]string{"Content-Security-Policy": "default-src 'self'"})
	w.pages["strict.com/s.js"] = httpsim.NewResponse(200, script.Embed(nil, "prop", ""))
	w.pages["strict.com/s.js"].Header.Set("Cache-Control", "max-age=60")
	w.addPage("victim.com", "/", `<html><body>target</body></html>`, nil)

	b := w.browser(t, "Chrome")
	b.ScriptRuntime().Register("prop", func(env script.Env, _ string) error {
		env.AddIframe("victim.com/")
		return nil
	})
	page := w.visit(t, b, "strict.com", "/")
	if len(page.Frames) != 0 {
		t.Fatal("CSP default-src 'self' allowed a cross-origin iframe")
	}
	if b.CSPBlocked() == 0 {
		t.Fatal("no CSP block recorded")
	}

	// With the header stripped by the attacker, the same script frames
	// the victim.
	w.addPage("strict.com", "/", `<html><body><script src="/s.js"></script></body></html>`, nil)
	b2 := w.browser(t, "Firefox")
	b2.ScriptRuntime().Register("prop", func(env script.Env, _ string) error {
		env.AddIframe("victim.com/")
		return nil
	})
	page2 := w.visit(t, b2, "strict.com", "/")
	if len(page2.Frames) != 1 {
		t.Fatal("iframe propagation failed without the CSP header")
	}
}

func TestIframeLoadsFramedOriginResources(t *testing.T) {
	w := newWeb(t)
	w.addPage("outer.com", "/", `<html><body><iframe src="inner.com/"></iframe></body></html>`, nil)
	w.addPage("inner.com", "/", `<html><body><script src="/inner.js"></script></body></html>`, nil)
	w.addPage("inner.com", "/inner.js", "inner", nil)
	b := w.browser(t, "Chrome")
	page := w.visit(t, b, "outer.com", "/")
	if len(page.Frames) != 1 {
		t.Fatalf("frames = %d", len(page.Frames))
	}
	if !b.Cache().Contains("outer.com", "inner.com/inner.js") {
		t.Fatal("framed origin's script not cached")
	}
}

func TestHardReloadBypassesHTTPCacheButNotCacheAPI(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/", `<html><body><script src="/app.js"></script></body></html>`, nil)
	w.addPage("site.com", "/app.js", "v1", nil)
	b := w.browser(t, "Chrome")
	w.visit(t, b, "site.com", "/")

	// Server now serves v2; a plain visit still sees cached v1.
	w.addPage("site.com", "/app.js", "v2", nil)
	page := w.visit(t, b, "site.com", "/")
	if string(page.Scripts[0].Content) != "v1" {
		t.Fatal("plain reload should serve from cache")
	}
	// Hard reload fetches v2.
	var hard *Page
	b.VisitWith("site.com", "/", VisitOpts{HardReload: true}, func(p *Page, err error) { hard = p })
	w.net.Run(0)
	if hard == nil || string(hard.Scripts[0].Content) != "v2" {
		t.Fatal("hard reload did not bypass the cache")
	}

	// Anchor a parasite in the Cache API: even a hard reload serves it.
	resp := httpsim.NewResponse(200, []byte("PARASITE"))
	resp.Header.Set("Cache-Control", "max-age=31536000")
	b.CacheAPI().Put("site.com/app.js", resp)
	var hard2 *Page
	b.VisitWith("site.com", "/", VisitOpts{HardReload: true}, func(p *Page, err error) { hard2 = p })
	w.net.Run(0)
	if hard2 == nil || string(hard2.Scripts[0].Content) != "PARASITE" {
		t.Fatal("Ctrl+F5 removed the Cache-API-anchored parasite (Table III says it must not)")
	}
}

func TestClearCacheVsClearCookies(t *testing.T) {
	// Table III: only clearing cookies removes the Cache API object.
	w := newWeb(t)
	b := w.browser(t, "Chrome")
	resp := httpsim.NewResponse(200, []byte("PARASITE"))
	resp.Header.Set("Cache-Control", "max-age=31536000")
	b.CacheAPI().Put("top1.com/persistent.js", resp)

	b.ClearCache()
	if b.CacheAPI().Len() != 1 {
		t.Fatal("clear-cache removed the Cache API parasite")
	}
	b.ClearCookies()
	if b.CacheAPI().Len() != 0 {
		t.Fatal("clear-cookies did not remove the Cache API parasite")
	}
}

// TestCacheAPIAnchorsNoStore: the Cache API applies no HTTP storage
// rule, so a script anchors a no-store response as it is, and a hard
// reload then serves it.
func TestCacheAPIAnchorsNoStore(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/", `<html><body><script src="/app.js"></script></body></html>`, nil)
	w.pages["site.com/app.js"] = httpsim.NewResponse(200, script.Embed(nil, "anchor", ""))
	b := w.browser(t, "Chrome")
	anchored := httpsim.NewResponse(200, []byte("PARASITE"))
	anchored.Header.Set("Cache-Control", "no-store")
	b.ScriptRuntime().Register("anchor", func(env script.Env, _ string) error {
		env.CacheAPIPut("/app.js", anchored)
		return nil
	})
	w.visit(t, b, "site.com", "/")
	if got, ok := b.CacheAPI().Get("site.com/app.js"); !ok || got != anchored {
		t.Fatal("CacheAPIPut did not anchor the no-store response")
	}
	var hard *Page
	b.VisitWith("site.com", "/", VisitOpts{HardReload: true}, func(p *Page, err error) { hard = p })
	w.net.Run(0)
	if hard == nil || len(hard.Scripts) != 1 || string(hard.Scripts[0].Content) != "PARASITE" {
		t.Fatal("a hard reload did not serve the anchored no-store response")
	}
}

// TestCacheServesTheStoredResponse: a response is read-only once built,
// so a cache hands its callback the response it stores, not a copy: on
// a fresh HTTP-cache hit, on a 304 revalidation and on a Cache API hit.
func TestCacheServesTheStoredResponse(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/fresh.js", "fresh", nil)
	w.addPage("site.com", "/tagged.js", "tagged", map[string]string{"Cache-Control": "no-cache", "ETag": `"v1"`})
	b := w.browser(t, "Chrome")
	for _, url := range []string{"site.com/fresh.js", "site.com/tagged.js"} {
		stored := w.fetch(t, b, url, fetchOpts{})
		if e, ok := b.Cache().Get("site.com", url); !ok || e.Response != stored {
			t.Fatalf("%s: the cache does not hold the fetched response", url)
		}
		if got := w.fetch(t, b, url, fetchOpts{}); got != stored {
			t.Errorf("%s: a cache serve got %p, want the stored response %p", url, got, stored)
		}
	}
	if w.served["site.com/fresh.js"] != 1 || w.served["site.com/tagged.js"] != 2 || b.CacheServes() != 2 {
		t.Fatalf("served fresh.js %d and tagged.js %d times with %d cache serves, want 1, 2 (one 304) and 2",
			w.served["site.com/fresh.js"], w.served["site.com/tagged.js"], b.CacheServes())
	}
	anchored := httpsim.NewResponse(200, []byte("PARASITE"))
	b.CacheAPI().Put("site.com/fresh.js", anchored)
	if got := w.fetch(t, b, "site.com/fresh.js", fetchOpts{bypassCache: true}); got != anchored {
		t.Errorf("a Cache API hit got %p, want the anchored response %p", got, anchored)
	}
}

// TestCacheCountsOneLookupPerFetch: a fetch looks its URL up in the
// HTTP cache once, so the store counts one miss per network fetch of an
// uncached URL, one hit per fresh serve and one hit per 304
// revalidation.
func TestCacheCountsOneLookupPerFetch(t *testing.T) {
	w := newWeb(t)
	w.addPage("site.com", "/fresh.js", "fresh", nil)
	w.addPage("site.com", "/tagged.js", "tagged", map[string]string{"Cache-Control": "no-cache", "ETag": `"v1"`})
	b := w.browser(t, "Chrome")
	for _, step := range []struct {
		url          string
		hits, misses int
	}{
		{"site.com/fresh.js", 0, 1},  // network fetch
		{"site.com/fresh.js", 1, 1},  // fresh serve
		{"site.com/tagged.js", 1, 2}, // network fetch
		{"site.com/tagged.js", 2, 2}, // 304 revalidation
	} {
		w.fetch(t, b, step.url, fetchOpts{})
		if st := b.Cache().Stats(); st.Hits != step.hits || st.Misses != step.misses {
			t.Fatalf("after fetching %s: %d hits and %d misses, want %d and %d",
				step.url, st.Hits, st.Misses, step.hits, step.misses)
		}
	}
	if b.NetFetches() != 2 || b.CacheServes() != 2 || w.served["site.com/tagged.js"] != 2 {
		t.Fatalf("%d network fetches, %d cache serves and tagged.js served %d times, want 2, 2 and 2 (one 304)",
			b.NetFetches(), b.CacheServes(), w.served["site.com/tagged.js"])
	}
}

// TestCacheHitAllocs budgets a fresh HTTP-cache hit and a Cache API hit
// at zero allocations: each serves the stored response itself. Skipped
// in -short mode: the CI race detector perturbs counts.
func TestCacheHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	w := newWeb(t)
	w.addPage("site.com", "/app.js", "function app(){}", nil)
	b := w.browser(t, "Chrome")
	var got *httpsim.Response
	cb := func(resp *httpsim.Response, _ error) { got = resp }
	b.fetch("site.com", "site.com/app.js", fetchOpts{}, cb)
	w.net.Run(0)
	b.CacheAPI().Put("site.com/anchor.js", httpsim.NewResponse(200, []byte("PARASITE")))
	const budget = 0 // measured with Go 1.24.0
	for _, c := range []struct{ name, url string }{
		{"HTTP-cache hit", "site.com/app.js"},
		{"Cache API hit", "site.com/anchor.js"},
	} {
		got = nil
		allocs := testing.AllocsPerRun(100, func() { b.fetch("site.com", c.url, fetchOpts{}, cb) })
		if got == nil {
			t.Fatalf("%s: %s was not served from a cache", c.name, c.url)
		}
		if allocs > budget {
			t.Errorf("%s allocs/op = %.1f, want <= %d", c.name, allocs, budget)
		}
	}
}

func TestIEBalloonsToOOM(t *testing.T) {
	w := newWeb(t)
	// Build an IE with a tiny memory limit so the test floods quickly.
	p, err := ProfileByName("IE")
	if err != nil {
		t.Fatal(err)
	}
	p.MemoryLimit = 64 * 1024
	b, err := New(w.net, w.host(t, "ie-victim", 42), Config{Profile: p, OS: Win10, Resolver: w.resolver()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("/junk%02d.jpg", i)
		w.addPage("attacker.com", path, strings.Repeat("x", 4096), nil)
		b.fetch("attacker.com", "attacker.com"+path, fetchOpts{}, func(*httpsim.Response, error) {})
	}
	w.net.Run(0)
	if !b.OOMKilled() {
		t.Fatal("IE did not balloon to OOM")
	}
	if b.Cache().Stats().Evictions != 0 {
		t.Fatal("IE evicted despite ballooning")
	}
	// Further work fails: the DOS.
	errSeen := false
	b.fetch("attacker.com", "attacker.com/junk00.jpg", fetchOpts{}, func(_ *httpsim.Response, err error) {
		errSeen = err != nil
	})
	w.net.Run(0)
	if !errSeen {
		t.Fatal("killed browser still serving")
	}
}

func TestOpaqueCrossOriginFetch(t *testing.T) {
	w := newWeb(t)
	w.addPage("a.com", "/", `<html><body><script src="/s.js"></script></body></html>`, nil)
	w.pages["a.com/s.js"] = httpsim.NewResponse(200, script.Embed(nil, "reader", ""))
	w.addPage("other.com", "/secret.json", `{"balance":9000}`, nil)
	w.addPage("open.com", "/public.json", `{"ok":1}`, map[string]string{"Access-Control-Allow-Origin": "*"})

	b := w.browser(t, "Chrome")
	var opaqueBody, openBody string
	b.ScriptRuntime().Register("reader", func(env script.Env, _ string) error {
		env.Fetch("other.com/secret.json", func(r *httpsim.Response, err error) {
			if err == nil {
				opaqueBody = string(r.Body)
			}
		})
		env.Fetch("open.com/public.json", func(r *httpsim.Response, err error) {
			if err == nil {
				openBody = string(r.Body)
			}
		})
		return nil
	})
	w.visit(t, b, "a.com", "/")
	if opaqueBody != "" {
		t.Fatalf("cross-origin body visible: %q", opaqueBody)
	}
	if openBody != `{"ok":1}` {
		t.Fatalf("CORS-allowed body = %q", openBody)
	}
	// The opaque fetch still populated the cache (propagation relies on
	// this).
	if !b.Cache().Contains("a.com", "other.com/secret.json") {
		t.Fatal("opaque response not cached")
	}
}

func TestProfileAvailability(t *testing.T) {
	w := newWeb(t)
	p, err := ProfileByName("Edge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(w.net, w.host(t, "x", 42), Config{Profile: p, OS: Linux, Resolver: w.resolver()}); err == nil {
		t.Fatal("Edge on Linux should not construct (n/a in Table II)")
	}
}

func TestProfileLookup(t *testing.T) {
	if _, err := ProfileByName("Chrome*"); err != nil {
		t.Fatalf("incognito lookup: %v", err)
	}
	if _, err := ProfileByName("Netscape"); err == nil {
		t.Fatal("unknown profile resolved")
	}
	if got := len(Profiles()); got != 7 {
		t.Fatalf("profiles = %d, want 7", got)
	}
	if got := len(TableIProfiles()); got != 6 {
		t.Fatalf("table I profiles = %d, want 6", got)
	}
	if got := len(TableIIBrowsers()); got != 6 {
		t.Fatalf("table II browsers = %d, want 6", got)
	}
	// Profiles hands out a copy: rewriting it leaves the table alone.
	mine := Profiles()
	mine[0].Name, mine[0].CacheSize = "Mosaic", 1
	if p, err := ProfileByName("Chrome"); err != nil || p.CacheSize != 320*mib || Profiles()[0].Name != "Chrome" {
		t.Fatalf("a caller's copy rewrote the profile table: %+v, %v", p, err)
	}
}

func TestHSTSPinning(t *testing.T) {
	w := newWeb(t)
	w.addPage("secure.com", "/", `<html><body>x</body></html>`,
		map[string]string{"Strict-Transport-Security": "max-age=63072000"})
	b := w.browser(t, "Chrome")
	w.visit(t, b, "secure.com", "/")
	if !b.HSTSKnown("secure.com") {
		t.Fatal("HSTS header not absorbed")
	}
	// A later plaintext fetch to the pinned host is refused.
	var ferr error
	b.fetch("secure.com", "secure.com/next", fetchOpts{bypassCache: true, bypassCacheAPI: true},
		func(_ *httpsim.Response, err error) { ferr = err })
	w.net.Run(0)
	if ferr == nil {
		t.Fatal("plaintext fetch to HSTS-pinned host succeeded")
	}
}

// TestPostRefusesPlaintextToHSTSHost holds a form POST to the same HSTS
// rule as a fetch: once the host is pinned, a plaintext endpoint is
// refused before anything goes on the wire.
func TestPostRefusesPlaintextToHSTSHost(t *testing.T) {
	w := newWeb(t)
	w.addPage("secure.com", "/", `<html><body><form id="login"></form></body></html>`,
		map[string]string{"Strict-Transport-Security": "max-age=63072000"})
	b := w.browser(t, "Chrome")
	page := w.visit(t, b, "secure.com", "/")
	if !b.HSTSKnown("secure.com") {
		t.Fatal("HSTS header not absorbed")
	}
	var perr error
	answered := false
	page.Post("/login", map[string]string{"user": "alice"}, func(_ *httpsim.Response, err error) {
		answered, perr = true, err
	})
	w.net.Run(0)
	if !answered || perr == nil {
		t.Fatalf("plaintext POST to HSTS-pinned host: answered=%v err=%v, want a refusal", answered, perr)
	}
	if n := w.served["secure.com/login"]; n != 0 {
		t.Fatalf("server served the POST %d times; it must never leave the browser", n)
	}
}

func TestSetCookieAbsorbed(t *testing.T) {
	w := newWeb(t)
	w.addPage("shop.com", "/", `<html><body>x</body></html>`,
		map[string]string{"Set-Cookie": "sid=abc123; Path=/; HttpOnly"})
	b := w.browser(t, "Chrome")
	w.visit(t, b, "shop.com", "/")
	if v, ok := b.Cookies().Get("shop.com", "sid"); !ok || v != "abc123" {
		t.Fatalf("cookie = %q ok=%v", v, ok)
	}
}

func TestImageDims(t *testing.T) {
	if w, h := imageDims(cnc.RenderSVG(cnc.Dim{W: 300, H: 200})); w != 300 || h != 200 {
		t.Fatalf("svg dims = %dx%d", w, h)
	}
	if w, h := imageDims([]byte("PNGDATA")); w != 1 || h != 1 {
		t.Fatalf("fallback dims = %dx%d", w, h)
	}
}

func TestCSPParsing(t *testing.T) {
	c := ParseCSP("default-src 'self'; img-src *; connect-src 'self' cdn.example.com")
	if !c.Present {
		t.Fatal("present = false")
	}
	if !c.Allows("img-src", "anywhere.com", "me.com") {
		t.Fatal("img wildcard blocked")
	}
	if !c.Wildcard("img-src") || c.Wildcard("connect-src") {
		t.Fatal("wildcard detection wrong")
	}
	if c.Allows("connect-src", "evil.com", "me.com") {
		t.Fatal("connect-src leak")
	}
	if !c.Allows("connect-src", "cdn.example.com", "me.com") {
		t.Fatal("allowed host blocked")
	}
	if !c.Allows("frame-src", "me.com", "me.com") {
		t.Fatal("default-src 'self' same-origin blocked")
	}
	if c.Allows("frame-src", "evil.com", "me.com") {
		t.Fatal("default-src 'self' cross-origin allowed")
	}
	none := ParseCSP("script-src 'none'")
	if none.Allows("script-src", "me.com", "me.com") {
		t.Fatal("'none' allowed")
	}
	absent := ParseCSP("")
	if !absent.Allows("script-src", "evil.com", "me.com") {
		t.Fatal("absent policy must allow")
	}
}

func TestCSPFromHeadersDeprecated(t *testing.T) {
	h := httpsim.Header{}
	h.Set(CSPHeaderDeprecated, "default-src 'self'")
	c := CSPFromHeaders(h.Get)
	if !c.Present || !c.Deprecated {
		t.Fatalf("deprecated CSP: %+v", c)
	}
	h2 := httpsim.Header{}
	h2.Set(CSPHeader, "default-src *")
	c2 := CSPFromHeaders(h2.Get)
	if !c2.Present || c2.Deprecated {
		t.Fatalf("modern CSP: %+v", c2)
	}
}

func TestCSPWildcardSubdomain(t *testing.T) {
	c := ParseCSP("img-src *.cdn.com")
	if !c.Allows("img-src", "a.cdn.com", "me.com") {
		t.Fatal("subdomain wildcard blocked")
	}
	if c.Allows("img-src", "cdn.com.evil.com", "me.com") {
		t.Fatal("suffix confusion")
	}
}

// TestCSPLevel3SourceLists pins three rules of CSP Level 3: a repeated
// directive keeps its first occurrence, 'none' has no effect beside
// other sources, and hosts match ASCII case-insensitively.
func TestCSPLevel3SourceLists(t *testing.T) {
	for _, c := range []struct {
		policy, directive, origin string
		want                      bool
	}{
		{"script-src 'self'; script-src *", "script-src", "evil.com", false},
		{"script-src 'self'; script-src *", "script-src", "me.com", true},
		{"SCRIPT-SRC 'self'; script-src *", "script-src", "evil.com", false},
		{"img-src 'none' master.evil", "img-src", "master.evil", true},
		{"img-src 'none' master.evil", "img-src", "other.com", false},
		{"img-src 'none'", "img-src", "me.com", false},
		{"img-src", "img-src", "me.com", false},
		{"img-src MASTER.EVIL", "img-src", "master.evil", true},
		{"img-src master.evil", "img-src", "Master.Evil", true},
		{"img-src *.CDN.com", "img-src", "a.cdn.com", true},
		{"img-src HTTPS://Master.Evil", "img-src", "master.evil", true},
	} {
		if got := ParseCSP(c.policy).Allows(c.directive, c.origin, "me.com"); got != c.want {
			t.Errorf("%q allows %s from %s = %v, want %v", c.policy, c.directive, c.origin, got, c.want)
		}
	}
}

// parseCSPAlloc runs ParseCSP over value and reports the bytes it
// allocated.
func parseCSPAlloc(value string) (CSP, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := ParseCSP(value)
	runtime.ReadMemStats(&after)
	return c, after.TotalAlloc - before.TotalAlloc
}

// FuzzParseCSP holds the policy parser to four properties on arbitrary
// values: it never panics; it allocates in proportion to the value;
// every directive name it keeps is lower-case; and each directive
// carries the sources of its first occurrence, read here directive by
// directive from the value. Its seeds are in testdata/fuzz/FuzzParseCSP.
func FuzzParseCSP(f *testing.F) {
	f.Fuzz(func(t *testing.T, value string) {
		c, alloc := parseCSPAlloc(value)
		// A value of one-byte sources costs ≈48 bytes a byte, in the
		// field slices; the constant covers what the fuzzing engine
		// allocates beside the call.
		if bound := uint64(128*len(value)) + 64<<10; alloc > bound {
			t.Fatalf("%d value bytes allocated %d, bound %d", len(value), alloc, bound)
		}
		first := make(map[string][]string)
		for _, token := range strings.Split(value, ";") {
			if strings.IndexFunc(token, func(r rune) bool { return r >= 0x80 }) >= 0 {
				continue // CSP skips a directive that is not ASCII
			}
			fields := strings.FieldsFunc(token, func(r rune) bool { return strings.ContainsRune("\t\n\f\r ", r) })
			if len(fields) == 0 {
				continue
			}
			if name := strings.ToLower(fields[0]); first[name] == nil {
				first[name] = append([]string{}, fields[1:]...)
			}
		}
		if len(c.Directives) != len(first) {
			t.Fatalf("%q: %d directives, want %d", value, len(c.Directives), len(first))
		}
		for name, sources := range c.Directives {
			if name != strings.ToLower(name) {
				t.Fatalf("%q: directive name %q is not lower-case", value, name)
			}
			if want, ok := first[name]; !ok || !slices.Equal(sources, want) {
				t.Fatalf("%q: %s carries %q, want its first occurrence's %q", value, name, sources, want)
			}
		}
	})
}

func mustEntry(t *testing.T, url string, resp *httpsim.Response) *httpcache.Entry {
	t.Helper()
	e := httpcache.EntryFromResponse(0, url, resp, false)
	if e == nil {
		t.Fatal("uncacheable response in fixture")
	}
	return e
}
