// Package proxycache models the network caches of Table IV: the taxonomy
// of cache devices between victim and origin (transparent proxies, web
// filters, firewalls, CDN reverse proxies, ISP and mobile caches) and a
// functional shared-cache simulation demonstrating the paper's §VI-B2
// propagation-between-devices result: "If the entry for a client in the
// cache is infected, it automatically affects all other clients connected
// to the cache."
package proxycache

import (
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
)

// Support is one cell of Table IV.
type Support int

// Support levels, matching the paper's legend.
const (
	// Enabled: caching enabled by default (filled circle).
	Enabled Support = iota + 1
	// Optional: caching supported but off by default (half circle).
	Optional
	// No: not supported (×).
	No
	// ArchModel: supported by the architecture model but not publicly
	// documented or implementation-dependent (‡).
	ArchModel
)

// Symbol renders the Table IV legend mark.
func (s Support) Symbol() string {
	switch s {
	case Enabled:
		return "●"
	case Optional:
		return "◐"
	case No:
		return "×"
	case ArchModel:
		return "‡"
	default:
		return "?"
	}
}

// Vulnerable reports whether the parasite can use the cache at all.
func (s Support) Vulnerable() bool { return s == Enabled || s == Optional || s == ArchModel }

// Device is one Table IV row.
type Device struct {
	Location string
	Type     string
	Instance string
	HTTP     Support
	HTTPS    Support
	Comment  string
	// Shared reports whether multiple clients share entries (true for
	// every network cache; the isolation countermeasure would break it).
	Shared bool
}

// Table IV location groups.
const (
	LocVictimHost    = "Caches on Victim Host"
	LocVictimNetwork = "Caches on Victim Network"
	LocRemote        = "Remote Caches - Backbone and Server-Side"
)

// Devices returns the Table IV population.
func Devices() []Device {
	return []Device{
		{LocVictimHost, "Client-internal Caches", "Browser Cache Desktop", Enabled, Enabled, "", false},
		{LocVictimHost, "Client-internal Caches", "Browser Cache Smartphones", Enabled, Enabled, "", false},
		{LocVictimNetwork, "Transparent Proxy", "Squid", Enabled, Optional, "", true},
		{LocVictimNetwork, "Web Filter", "Cisco Web Security Appliance", Enabled, Optional, "AsyncOS 9.1.1", true},
		{LocVictimNetwork, "Web Filter", "McAfee Web Gateway", Enabled, Optional, "", true},
		{LocVictimNetwork, "Web Filter", "Citrix NetScaler", Enabled, ArchModel, "", true},
		{LocVictimNetwork, "Web Filter", "Barracuda Web Filter", Enabled, No, "", true},
		{LocVictimNetwork, "Web Filter", "Blue Coat ProxySG", Enabled, No, "", true},
		{LocVictimNetwork, "Firewall", "Sophos UTM", Optional, Optional, "community-documented", true},
		{LocVictimNetwork, "Firewall", "Fortigate", Enabled, Optional, "", true},
		{LocVictimNetwork, "Firewall", "Barracuda F-Series", Optional, No, "", true},
		{LocVictimNetwork, "Firewall", "Cisco ASA", Optional, No, "via redirect", true},
		{LocVictimNetwork, "Firewall", "pfSense", Optional, No, "via squid module", true},
		{LocVictimNetwork, "Transport", "Airplanes", Enabled, ArchModel, "", true},
		{LocVictimNetwork, "Transport", "(Cruise) Vessels", Enabled, ArchModel, "", true},
		{LocRemote, "Reverse Proxies / HTTP Accelerators", "CDNs", Enabled, Enabled, "", true},
		{LocRemote, "Reverse Proxies / HTTP Accelerators", "Varnish HTTP Cache", Enabled, Optional, "with separate SSL offloader", true},
		{LocRemote, "Reverse Proxies / HTTP Accelerators", "F5 Big-IP WebAccelerator", Enabled, Optional, "with separate SSL offloader", true},
		{LocRemote, "Reverse Proxies / HTTP Accelerators", "SiteCelerate", Enabled, Optional, "with separate SSL offloader", true},
		{LocRemote, "Web Application Firewall", "GoDaddy WAF", Enabled, ArchModel, "", true},
		{LocRemote, "ISP", "CacheMara", Enabled, No, "", true},
		{LocRemote, "Mobile Network", "LTE Network", ArchModel, No, "", true},
		{LocRemote, "Mobile Network", "5G Networks", ArchModel, No, "with MEC", true},
	}
}

// SharedCache is a functional network cache shared by many clients (the
// Squid / CDN / web-filter model). It implements the caching-proxy data
// path so the infection experiment runs through real code.
type SharedCache struct {
	name  string
	store *httpcache.Store
	// isolated keys entries per client — the §VI-B2 countermeasure
	// ("an isolation can be applied in the cache per client, which
	// however would harm performance").
	isolated bool

	forwarded int
	hits      int
}

// NewSharedCache builds a proxy cache with the given byte capacity. The
// cache stands outside any simulated network, so its entries are stored
// and judged fresh at virtual time 0.
func NewSharedCache(name string, capacity int64, isolated bool) *SharedCache {
	return &SharedCache{
		name:     name,
		store:    httpcache.NewStore(httpcache.Options{Capacity: capacity, Partitioned: isolated}),
		isolated: isolated,
	}
}

// Name returns the device name.
func (c *SharedCache) Name() string { return c.name }

// Forwarded counts origin fetches; Hits counts cache serves.
func (c *SharedCache) Forwarded() int { return c.forwarded }

// Hits counts cache serves.
func (c *SharedCache) Hits() int { return c.hits }

// Len exposes entry count.
func (c *SharedCache) Len() int { return c.store.Len() }

// Handle processes one client request through the cache: serve from the
// shared store when fresh, otherwise forward to origin and cache the
// response. clientID only matters under per-client isolation. The store
// keeps the origin's response as it is; the one copy is the response
// returned, which carries X-Cache.
func (c *SharedCache) Handle(clientID string, req *httpsim.Request, origin httpsim.HandlerFunc) *httpsim.Response {
	url := req.URL()
	partition := ""
	if c.isolated {
		partition = clientID
	}
	if e, ok := c.store.GetFresh(0, partition, url); ok {
		c.hits++
		out := e.Response.Clone()
		out.Header.Set("X-Cache", "HIT from "+c.name)
		return out
	}
	c.forwarded++
	resp := origin(req)
	if resp == nil {
		return httpsim.NewResponse(502, nil)
	}
	c.store.Put(partition, httpcache.EntryFromResponse(0, url, resp, true))
	out := resp.Clone()
	out.Header.Set("X-Cache", "MISS from "+c.name)
	return out
}

// Flush clears the cache.
func (c *SharedCache) Flush() { c.store.Clear() }

// InfectionResult summarises one shared-cache infection experiment.
type InfectionResult struct {
	Device        string
	Isolated      bool
	VictimsServed int // clients that received the parasite from the cache
	OriginFetches int
}

// RunInfection demonstrates §VI-B2 on a device: client "patient-zero"
// receives an infected response (the origin function stands in for the
// master's injection); then n other clients request the same object. The
// result reports how many of them got the parasite out of the cache.
func RunInfection(cache *SharedCache, infected *httpsim.Response, clients int) InfectionResult {
	req := httpsim.NewRequest("GET", "top1.com", "/persistent.js")
	infectedOrigin := func(*httpsim.Request) *httpsim.Response { return infected }
	cleanOrigin := func(*httpsim.Request) *httpsim.Response {
		resp := httpsim.NewResponse(200, []byte("function lib(){}"))
		resp.Header.Set("Cache-Control", "max-age=3600")
		return resp
	}
	// Patient zero: the master injects on this client's connection; the
	// proxy caches what it relays.
	_ = cache.Handle("patient-zero", req, infectedOrigin)

	res := InfectionResult{Device: cache.Name(), Isolated: cache.isolated}
	for i := 0; i < clients; i++ {
		resp := cache.Handle(clientName(i), req, cleanOrigin)
		if string(resp.Body) == string(infected.Body) {
			res.VictimsServed++
		}
	}
	res.OriginFetches = cache.Forwarded()
	return res
}

func clientName(i int) string {
	return "client-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10))
}
