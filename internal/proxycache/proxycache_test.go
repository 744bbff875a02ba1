package proxycache

import (
	"strings"
	"testing"

	"masterparasite/internal/httpsim"
	"masterparasite/internal/script"
)

func infectedResponse() *httpsim.Response {
	body := script.Embed([]byte("function lib(){}"), "parasite", "p1")
	resp := httpsim.NewResponse(200, body)
	resp.Header.Set("Cache-Control", "public, max-age=31536000")
	return resp
}

func TestTableIVPopulation(t *testing.T) {
	devs := Devices()
	if len(devs) != 23 {
		t.Fatalf("devices = %d, want 23 rows", len(devs))
	}
	byInstance := make(map[string]Device)
	locations := make(map[string]int)
	for _, d := range devs {
		byInstance[d.Instance] = d
		locations[d.Location]++
	}
	if len(locations) != 3 {
		t.Fatalf("locations = %v", locations)
	}
	// Spot-check cells against the paper.
	if d := byInstance["Squid"]; d.HTTP != Enabled || d.HTTPS != Optional {
		t.Fatalf("Squid = %+v", d)
	}
	if d := byInstance["Barracuda Web Filter"]; d.HTTPS != No {
		t.Fatalf("Barracuda = %+v", d)
	}
	if d := byInstance["CDNs"]; d.HTTP != Enabled || d.HTTPS != Enabled {
		t.Fatalf("CDNs = %+v", d)
	}
	if d := byInstance["LTE Network"]; d.HTTP != ArchModel || d.HTTPS != No {
		t.Fatalf("LTE = %+v", d)
	}
	if d := byInstance["Browser Cache Desktop"]; d.Shared {
		t.Fatal("browser cache marked shared")
	}
}

func TestSupportSemantics(t *testing.T) {
	if !Enabled.Vulnerable() || !Optional.Vulnerable() || !ArchModel.Vulnerable() {
		t.Fatal("cache-capable support levels must be vulnerable")
	}
	if No.Vulnerable() {
		t.Fatal("unsupported caching cannot be vulnerable")
	}
	for s, sym := range map[Support]string{Enabled: "●", Optional: "◐", No: "×", ArchModel: "‡", Support(0): "?"} {
		if s.Symbol() != sym {
			t.Errorf("symbol(%d) = %q", s, s.Symbol())
		}
	}
}

func TestSharedCacheServesSecondClient(t *testing.T) {
	cache := NewSharedCache("squid", 1<<20, false)
	res := RunInfection(cache, infectedResponse(), 10)
	if res.VictimsServed != 10 {
		t.Fatalf("victims served = %d, want 10 (shared cache infects everyone)", res.VictimsServed)
	}
	if res.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (patient zero only)", res.OriginFetches)
	}
}

func TestIsolatedCacheContainsInfection(t *testing.T) {
	// The §VI-B2 countermeasure: per-client isolation stops cross-client
	// infection, at the cost of per-client origin fetches.
	cache := NewSharedCache("isolated-squid", 1<<20, true)
	res := RunInfection(cache, infectedResponse(), 10)
	if res.VictimsServed != 0 {
		t.Fatalf("victims served = %d, want 0 under isolation", res.VictimsServed)
	}
	if res.OriginFetches != 11 {
		t.Fatalf("origin fetches = %d, want 11 (performance cost)", res.OriginFetches)
	}
}

func TestCacheHitHeaders(t *testing.T) {
	cache := NewSharedCache("cdn-edge", 1<<20, false)
	origin := func(*httpsim.Request) *httpsim.Response {
		r := httpsim.NewResponse(200, []byte("x"))
		r.Header.Set("Cache-Control", "max-age=60")
		return r
	}
	req := httpsim.NewRequest("GET", "a.com", "/o")
	first := cache.Handle("c1", req, origin)
	second := cache.Handle("c2", req, origin)
	if !strings.Contains(first.Header.Get("X-Cache"), "MISS") {
		t.Fatalf("first = %q", first.Header.Get("X-Cache"))
	}
	if !strings.Contains(second.Header.Get("X-Cache"), "HIT") {
		t.Fatalf("second = %q", second.Header.Get("X-Cache"))
	}
	if cache.Hits() != 1 || cache.Forwarded() != 1 {
		t.Fatalf("hits=%d fwd=%d", cache.Hits(), cache.Forwarded())
	}
}

// TestCachedErrorKeepsItsStatus: a 404 the proxy relayed once and
// stored (heuristic freshness) reaches the next client as the same 404,
// not as the 200 OK the cache used to stamp on every hit.
func TestCachedErrorKeepsItsStatus(t *testing.T) {
	cache := NewSharedCache("squid", 1<<20, false)
	origin := func(*httpsim.Request) *httpsim.Response {
		return httpsim.NewResponse(404, []byte("not found"))
	}
	req := httpsim.NewRequest("GET", "top1.com", "/gone.js")
	for i, client := range []string{"c1", "c2"} {
		resp := cache.Handle(client, req, origin)
		if resp.StatusCode != 404 || resp.Status != "Not Found" {
			t.Errorf("client %s (%s): %d %q, want 404 \"Not Found\"",
				client, resp.Header.Get("X-Cache"), resp.StatusCode, resp.Status)
		}
		if wire := string(resp.Marshal()); !strings.HasPrefix(wire, "HTTP/1.1 404 Not Found\r\n") {
			t.Errorf("response %d on the wire: %q", i, wire)
		}
	}
	if cache.Hits() != 1 || cache.Forwarded() != 1 {
		t.Fatalf("hits=%d fwd=%d, want the second client served from the cache", cache.Hits(), cache.Forwarded())
	}
}

func TestPrivateResponsesNotShared(t *testing.T) {
	cache := NewSharedCache("proxy", 1<<20, false)
	origin := func(*httpsim.Request) *httpsim.Response {
		r := httpsim.NewResponse(200, []byte("account data"))
		r.Header.Set("Cache-Control", "private, max-age=600")
		return r
	}
	req := httpsim.NewRequest("GET", "bank.com", "/account")
	cache.Handle("alice", req, origin)
	resp := cache.Handle("bob", req, origin)
	if strings.Contains(resp.Header.Get("X-Cache"), "HIT") {
		t.Fatal("private response served from shared cache")
	}
}

func TestNoStoreNotCached(t *testing.T) {
	cache := NewSharedCache("proxy", 1<<20, false)
	origin := func(*httpsim.Request) *httpsim.Response {
		r := httpsim.NewResponse(200, []byte("x"))
		r.Header.Set("Cache-Control", "no-store")
		return r
	}
	req := httpsim.NewRequest("GET", "a.com", "/o")
	cache.Handle("c1", req, origin)
	if cache.Len() != 0 {
		t.Fatal("no-store response cached")
	}
}

func TestFlush(t *testing.T) {
	cache := NewSharedCache("proxy", 1<<20, false)
	RunInfection(cache, infectedResponse(), 1)
	if cache.Len() == 0 {
		t.Fatal("nothing cached")
	}
	cache.Flush()
	if cache.Len() != 0 {
		t.Fatal("flush failed")
	}
}

func TestNilOriginBecomes502(t *testing.T) {
	cache := NewSharedCache("proxy", 1<<20, false)
	resp := cache.Handle("c", httpsim.NewRequest("GET", "a.com", "/"), func(*httpsim.Request) *httpsim.Response { return nil })
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestVulnerableDeviceCount(t *testing.T) {
	// Every device with any HTTP caching capability is usable by the
	// attack; the paper's conclusion is that all network HTTP(S) caches
	// are vulnerable by design.
	vulnerable := 0
	for _, d := range Devices() {
		if d.HTTP.Vulnerable() {
			vulnerable++
		}
	}
	if vulnerable != len(Devices()) {
		t.Fatalf("vulnerable = %d of %d; every Table IV row has an HTTP-capable cell", vulnerable, len(Devices()))
	}
}

// TestSMaxAgeOverridesMaxAge: in a shared cache s-maxage replaces
// max-age as the freshness lifetime (RFC 9111 §5.2.2.10). The cache
// judges freshness at virtual time 0, so a zero lifetime is the one a
// second client can observe: it misses, anything longer hits.
func TestSMaxAgeOverridesMaxAge(t *testing.T) {
	for _, c := range []struct {
		cc      string
		wantHit bool
	}{
		{"max-age=0, s-maxage=120", true},
		{"s-maxage=0, max-age=60", false},
		{"max-age=0", false},
		{"max-age=60", true},
	} {
		cache := NewSharedCache("squid", 1<<20, false)
		req := httpsim.NewRequest("GET", "top1.com", "/lib.js")
		origin := func(*httpsim.Request) *httpsim.Response {
			resp := httpsim.NewResponse(200, []byte("function lib(){}"))
			resp.Header.Set("Cache-Control", c.cc)
			return resp
		}
		cache.Handle("a", req, origin)
		resp := cache.Handle("b", req, origin)
		if hit := strings.HasPrefix(resp.Header.Get("X-Cache"), "HIT"); hit != c.wantHit {
			t.Errorf("Cache-Control %q: second client X-Cache %q, want hit=%v", c.cc, resp.Header.Get("X-Cache"), c.wantHit)
		}
	}
}
