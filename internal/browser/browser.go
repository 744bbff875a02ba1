package browser

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// Endpoint is the network location of a named host.
type Endpoint struct {
	Addr netsim.Addr
	Port uint16
	// TLS marks the host as HTTPS: traffic is sealed with HostKey(host).
	TLS bool
}

// Resolver maps a host name to its endpoint — the simulation's DNS.
type Resolver func(host string) (Endpoint, bool)

// Errors reported by the browser.
var (
	ErrUnresolvable  = errors.New("browser: host does not resolve")
	ErrBrowserKilled = errors.New("browser: process killed by OS (out of memory)")
	ErrBlockedByCSP  = errors.New("browser: request blocked by content security policy")
)

// Browser is one victim browser instance on the simulated network.
type Browser struct {
	// Profile is fixed at New, which renders userAgent from it once;
	// nothing reassigns it afterwards.
	Profile Profile
	OS      OS

	userAgent string

	net     *netsim.Network
	ifc     *netsim.Interface
	stack   *tcpsim.Stack
	client  *httpsim.Client
	resolve Resolver

	cache    *httpcache.Store
	cacheAPI *httpcache.CacheAPIStore
	cookies  *httpcache.CookieJar
	storage  map[string]map[string]string
	hsts     map[string]bool

	runtime *Runtime

	// EnforceCSP toggles policy enforcement (on by default; the ablation
	// benchmark switches it off).
	EnforceCSP bool
	// DefenseRandomQuery implements the §VIII recommendation "disable
	// caching of scripts to ensure that a fresh copy is loaded every time
	// — we implemented this by adding a random query string to each
	// request". Script fetches get a unique query, making cached copies
	// unreachable.
	DefenseRandomQuery bool
	defenseCounter     int

	oomKilled   bool
	sriBlocked  int
	cspBlocked  int
	netFetches  int
	cacheServes int
}

// Runtime is re-exported so callers register parasite behaviours without
// importing the script package's Runtime directly.
type Runtime = scriptRuntime

// Config bundles constructor parameters.
type Config struct {
	Profile  Profile
	OS       OS
	Segment  *netsim.Segment
	Addr     netsim.Addr
	Resolver Resolver
	// Delay is the interface's proximity delay on the segment.
	Delay time.Duration
	// Seed controls ISN generation for reproducibility.
	Seed int64
	// Reassembly overrides the TCP overlap policy (FirstWins when zero);
	// the injection ablation sets LastWins.
	Reassembly tcpsim.ReassemblyPolicy
	// Retransmit enables tcpsim's retransmission state machine, so the
	// browser survives a faulty (lossy/jittery) link profile.
	Retransmit bool
}

// New attaches a browser to the network.
func New(network *netsim.Network, cfg Config) (*Browser, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("browser: nil resolver")
	}
	if !cfg.Profile.RunsOn(cfg.OS) {
		return nil, fmt.Errorf("browser: %s does not run on %s", cfg.Profile.UserAgent(), cfg.OS)
	}
	ifc, err := cfg.Segment.Attach(cfg.Addr, cfg.Delay, nil)
	if err != nil {
		return nil, fmt.Errorf("browser attach: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	stackOpts := []tcpsim.StackOption{tcpsim.WithSeed(seed)}
	if cfg.Reassembly != 0 {
		stackOpts = append(stackOpts, tcpsim.WithReassembly(cfg.Reassembly))
	}
	if cfg.Retransmit {
		stackOpts = append(stackOpts, tcpsim.WithRetransmit())
	}
	stack := tcpsim.NewStack(network, ifc, stackOpts...)
	b := &Browser{
		Profile: cfg.Profile,
		OS:      cfg.OS,
		net:     network,
		ifc:     ifc,
		stack:   stack,
		client:  httpsim.NewClient(stack),
		resolve: cfg.Resolver,
		cache: httpcache.NewStore(httpcache.Options{
			Capacity:    cfg.Profile.CacheSize,
			Policy:      cfg.Profile.Policy,
			Partitioned: cfg.Profile.PartitionedCache,
			Ballooning:  cfg.Profile.Ballooning,
		}),
		userAgent:  cfg.Profile.UserAgent(),
		cacheAPI:   httpcache.NewCacheAPIStore(),
		cookies:    httpcache.NewCookieJar(),
		storage:    make(map[string]map[string]string),
		hsts:       make(map[string]bool),
		runtime:    newScriptRuntime(),
		EnforceCSP: true,
	}
	return b, nil
}

// Runtime returns the script runtime for behaviour registration.
func (b *Browser) ScriptRuntime() *Runtime { return b.runtime }

// Interface exposes the browser's network attachment point — the churn
// model toggles its receive path to simulate the victim leaving and
// rejoining the WiFi mid-attack.
func (b *Browser) Interface() *netsim.Interface { return b.ifc }

// Cache exposes the HTTP object cache (experiments inspect it).
func (b *Browser) Cache() *httpcache.Store { return b.cache }

// CacheAPI exposes the Cache API store.
func (b *Browser) CacheAPI() *httpcache.CacheAPIStore { return b.cacheAPI }

// Cookies exposes the cookie jar.
func (b *Browser) Cookies() *httpcache.CookieJar { return b.cookies }

// LocalStorage returns the live storage map for an origin.
func (b *Browser) LocalStorage(origin string) map[string]string {
	m, ok := b.storage[origin]
	if !ok {
		m = make(map[string]string)
		b.storage[origin] = m
	}
	return m
}

// OOMKilled reports whether the OS killed the browser (IE ballooning).
func (b *Browser) OOMKilled() bool { return b.oomKilled }

// Counters for the experiments.
func (b *Browser) NetFetches() int  { return b.netFetches }
func (b *Browser) CacheServes() int { return b.cacheServes }
func (b *Browser) CSPBlocked() int  { return b.cspBlocked }
func (b *Browser) SRIBlocked() int  { return b.sriBlocked }

// HSTSKnown reports whether the browser has pinned host to HTTPS.
func (b *Browser) HSTSKnown(host string) bool { return b.hsts[host] }

// ClearCache clears the HTTP object cache — and, per Table III, does NOT
// touch the Cache API store, which is why the parasite survives.
func (b *Browser) ClearCache() { b.cache.Clear() }

// ClearCookies clears cookies *and site data*, which includes the Cache
// API store and local storage. Per Table III this is the only refresh
// action that removes Cache-API-anchored parasites.
func (b *Browser) ClearCookies() {
	b.cookies.Clear()
	b.cacheAPI.Clear()
	b.storage = make(map[string]map[string]string)
}

// normalizeURL resolves a resource reference against the page host.
func normalizeURL(pageHost, ref string) string {
	ref = strings.TrimPrefix(strings.TrimPrefix(ref, "https://"), "http://")
	if strings.HasPrefix(ref, "//") { // protocol-relative
		return ref[2:]
	}
	if strings.HasPrefix(ref, "/") {
		return pageHost + ref
	}
	return ref
}

// hostOf splits a host-qualified URL.
func hostOf(url string) string {
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[:i]
	}
	return url
}

func pathOf(url string) string {
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[i:]
	}
	return "/"
}

// fetchOpts tunes one fetch.
type fetchOpts struct {
	// bypassCache skips the HTTP cache entirely (hard reload, or the
	// parasite's cache-buster refetch). The Cache API is still consulted
	// unless bypassCacheAPI is also set: a hard reload does not disable a
	// service worker.
	bypassCache    bool
	bypassCacheAPI bool
}

// fetchResult tells the caller where the response came from.
type fetchResult struct {
	resp        *httpsim.Response
	fromCache   bool
	fromAPI     bool
	wasNotified bool
}

// fetch retrieves url for a page in the pageHost origin context. cb runs
// inside the network event loop.
func (b *Browser) fetch(pageHost, url string, opts fetchOpts, cb func(fetchResult, error)) {
	if b.oomKilled {
		cb(fetchResult{}, ErrBrowserKilled)
		return
	}
	// 1. Cache API (service-worker) interception.
	if b.Profile.SupportsCacheAPI && !opts.bypassCacheAPI {
		if e, ok := b.cacheAPI.Get(url); ok {
			cb(fetchResult{resp: e.ToResponse(), fromAPI: true}, nil)
			return
		}
	}
	now := b.net.Now()
	// 2. HTTP cache.
	if !opts.bypassCache {
		if e, ok := b.cache.GetFresh(now, pageHost, url); ok {
			b.cacheServes++
			cb(fetchResult{resp: e.ToResponse(), fromCache: true}, nil)
			return
		}
	}
	// 3. Network, possibly conditional.
	host := hostOf(url)
	req := httpsim.NewRequest("GET", host, pathOf(url))
	var stale *httpcache.Entry
	if !opts.bypassCache {
		if e, ok := b.cache.Get(pageHost, url); ok && e.ETag != "" {
			stale = e
			req.Header.Set("If-None-Match", e.ETag)
		}
	}
	b.send(req, func(resp *httpsim.Response, err error) {
		if err != nil {
			cb(fetchResult{}, err)
			return
		}
		if resp.StatusCode == 304 && stale != nil {
			// Revalidated: refresh the stored entry's clock.
			stale.StoredAt = b.net.Now()
			b.cacheServes++
			cb(fetchResult{resp: stale.ToResponse(), fromCache: true}, nil)
			return
		}
		b.netFetches++
		b.absorb(host, resp)
		if e := httpcache.EntryFromResponse(b.net.Now(), url, host, resp); e != nil {
			b.cache.Put(pageHost, e)
			if b.Profile.Ballooning && b.Profile.MemoryLimit > 0 &&
				b.cache.Size() > b.Profile.MemoryLimit {
				// The OS steps in: Internet Explorer's Table I pathology.
				b.oomKilled = true
			}
		}
		cb(fetchResult{resp: resp}, nil)
	})
}

// send is the browser's one way onto the network. It resolves req's
// host, stamps the browser's User-Agent and the host's cookies, and
// sends req sealed with the host's key to an HTTPS endpoint, in
// plaintext otherwise — except that HSTS pins a host to HTTPS, so a
// plaintext send to a pinned host is refused before it leaves the
// browser. cb runs inside the event loop; absorbing the response is the
// caller's, since a revalidated fetch answers from its stale entry.
func (b *Browser) send(req *httpsim.Request, cb func(*httpsim.Response, error)) {
	host := req.Host
	ep, ok := b.resolve(host)
	if !ok {
		cb(nil, fmt.Errorf("%w: %s", ErrUnresolvable, host))
		return
	}
	req.Header.Set("User-Agent", b.userAgent)
	if c := b.cookies.All(host); c != "" {
		req.Header.Set("Cookie", c)
	}
	if ep.TLS {
		b.client.Do(ep.Addr, ep.Port, httpsim.XORSealer{Key: httpsim.HostKey(host)}, req, cb)
		return
	}
	if b.hsts[host] {
		cb(nil, fmt.Errorf("browser: %s pinned by HSTS but endpoint is plaintext", host))
		return
	}
	b.client.Do(ep.Addr, ep.Port, nil, req, cb)
}

// absorb applies response side effects: cookies and HSTS pinning.
func (b *Browser) absorb(host string, resp *httpsim.Response) {
	if sc := resp.Header.Get("Set-Cookie"); sc != "" {
		name, value, ok := strings.Cut(strings.SplitN(sc, ";", 2)[0], "=")
		if ok {
			b.cookies.Set(host, strings.TrimSpace(name), strings.TrimSpace(value))
		}
	}
	if resp.Header.Has("Strict-Transport-Security") {
		b.hsts[host] = true
	}
}
