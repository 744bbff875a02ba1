// Package core orchestrates the full Master-and-Parasite kill chain on
// the simulated network: victim browser, legitimate web servers, the
// eavesdropping master with its eviction and infection modules, and the
// covert C&C endpoint. The experiments package drives Scenario instances
// to regenerate every table and figure of the paper.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/cnc"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/replay"
	"masterparasite/internal/tcpsim"
)

// Network locations inside a scenario.
const (
	webAddr      netsim.Addr = "web-farm"
	attackerAddr netsim.Addr = "attacker-box"
	victimAddr   netsim.Addr = "victim"

	// MasterHost is the attacker's C&C domain.
	MasterHost = "master.evil"
	// JunkHost is the attacker's junk-object domain (eviction flood).
	JunkHost = "attacker.com"
)

// Timing: the attacker sits on the victim's WiFi (sub-millisecond away);
// the genuine servers are an internet round trip away. This asymmetry is
// what makes the injected response win (§V).
const (
	wifiLatency   = 200 * time.Microsecond
	victimDelay   = 300 * time.Microsecond
	attackerDelay = 100 * time.Microsecond
	serverDelay   = 12 * time.Millisecond
)

// Config parameterises a scenario.
type Config struct {
	// Profile is the victim browser ("Chrome", "Chrome*", "IE", ...).
	Profile string
	// ProfileOverride substitutes a fully custom profile (experiments use
	// purpose-sized caches so eviction floods stay tractable).
	ProfileOverride *browser.Profile
	// OS is the victim platform (default Win10).
	OS browser.OS
	// Seed keeps runs reproducible.
	Seed int64
	// ReassemblyPolicy overrides the victim TCP stack's overlap handling
	// (FirstWins by default; LastWins for the ablation).
	ReassemblyPolicy tcpsim.ReassemblyPolicy
	// FraudulentCertHosts grants the master mis-issued certificates.
	FraudulentCertHosts []string
	// ServerDelay overrides the web farm / attacker-server RTT (default
	// 12 ms). The replay subsystem uses it as a perturbation knob: a
	// recorded run re-driven with a different server latency diverges at
	// the first server-side wire event, pinpointing the timing change.
	ServerDelay time.Duration
	// Link applies a fault profile (loss/jitter/reorder/duplication/
	// bandwidth) to the WiFi segment. nil keeps the historical perfect
	// wire. Faulted scenarios almost always want Retransmit too.
	Link *netsim.LinkProfile
	// Retransmit enables tcpsim's retransmission state machine on every
	// scenario stack (victim, web farm, attacker server). Off by
	// default: the clean-wire artifacts were recorded without it and
	// their bytes are pinned by golden and fingerprint tests.
	Retransmit bool
}

// Scenario is one assembled attack laboratory.
type Scenario struct {
	Net      *netsim.Network
	Wifi     *netsim.Segment
	Victim   *browser.Browser
	Master   *attacker.Master
	CNC      *cnc.MasterServer
	Registry *parasite.Registry

	sites    map[string]*httpsim.Response   // "host/path" → response
	handlers map[string]httpsim.HandlerFunc // host → dynamic handler
	tls      map[string]bool                // hosts served over the sealed channel
	served   map[string]int

	// lastTLSKey records which vhost key opened the in-flight sealed
	// request so the response is sealed with the same one. The event loop
	// is single-threaded, so request/response pairing is safe.
	lastTLSKey string

	// retransmit remembers whether stacks are built with retransmission,
	// so AddVictim attaches extra victims with the same transport.
	retransmit bool
}

// NewScenario assembles the network of Fig. 1/2: victim and attacker on
// the same WiFi segment, web farm and attacker server across the uplink.
func NewScenario(cfg Config) (*Scenario, error) {
	if cfg.Profile == "" {
		cfg.Profile = "Chrome"
	}
	if cfg.OS == "" {
		cfg.OS = browser.Win10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var profile browser.Profile
	if cfg.ProfileOverride != nil {
		profile = *cfg.ProfileOverride
	} else {
		var err error
		profile, err = browser.ProfileByName(cfg.Profile)
		if err != nil {
			return nil, err
		}
	}

	s := &Scenario{
		Net:      netsim.New(),
		sites:    make(map[string]*httpsim.Response),
		handlers: make(map[string]httpsim.HandlerFunc),
		tls:      make(map[string]bool),
		served:   make(map[string]int),
	}
	s.Wifi = s.Net.MustSegment("public-wifi", wifiLatency)
	if cfg.Link != nil {
		s.Wifi.SetLinkProfile(*cfg.Link)
	}
	s.retransmit = cfg.Retransmit
	stackOpts := func(seed int64) []tcpsim.StackOption {
		opts := []tcpsim.StackOption{tcpsim.WithSeed(seed)}
		if cfg.Retransmit {
			opts = append(opts, tcpsim.WithRetransmit())
		}
		return opts
	}

	srvDelay := serverDelay
	if cfg.ServerDelay > 0 {
		srvDelay = cfg.ServerDelay
	}

	// Legitimate web farm: one address hosting all site vhosts, plain
	// and sealed listeners.
	webIfc, err := s.Wifi.Attach(webAddr, srvDelay, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario web attach: %w", err)
	}
	webStack := tcpsim.NewStack(s.Net, webIfc, stackOpts(cfg.Seed+100)...)
	if _, err := httpsim.NewServer(webStack, 80, nil, s.serve); err != nil {
		return nil, fmt.Errorf("scenario web server: %w", err)
	}
	if _, err := httpsim.NewServer(webStack, 443, vhostSealer{s: s}, s.serve); err != nil {
		return nil, fmt.Errorf("scenario tls server: %w", err)
	}

	// Attacker's remote infrastructure: junk objects + C&C, dispatched
	// by Host header on one address.
	atkIfc, err := s.Wifi.Attach(attackerAddr, srvDelay, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario attacker attach: %w", err)
	}
	atkStack := tcpsim.NewStack(s.Net, atkIfc, stackOpts(cfg.Seed+200)...)
	s.CNC = cnc.NewMasterServer()
	cncHandler := attacker.CNCAdapter(s.CNC)
	junkBlob := strings.Repeat("j", 4096)
	if _, err := httpsim.NewServer(atkStack, 80, nil, func(req *httpsim.Request) *httpsim.Response {
		switch req.Host {
		case MasterHost:
			return cncHandler(req)
		case JunkHost:
			resp := httpsim.NewResponse(200, []byte(junkBlob))
			resp.Header.Set("Content-Type", "image/jpeg")
			resp.Header.Set("Cache-Control", "public, max-age=31536000")
			return resp
		default:
			return httpsim.NewResponse(404, nil)
		}
	}); err != nil {
		return nil, fmt.Errorf("scenario attacker server: %w", err)
	}

	// Victim browser.
	victim, err := browser.New(s.Net, browser.Config{
		Profile:    profile,
		OS:         cfg.OS,
		Segment:    s.Wifi,
		Addr:       victimAddr,
		Resolver:   s.resolve,
		Delay:      victimDelay,
		Seed:       cfg.Seed,
		Reassembly: cfg.ReassemblyPolicy,
		Retransmit: cfg.Retransmit,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario victim: %w", err)
	}
	s.Victim = victim

	// The master's tap, closest to the victim.
	var opts []attacker.Option
	for _, h := range cfg.FraudulentCertHosts {
		opts = append(opts, attacker.WithFraudulentCert(h))
	}
	s.Master = attacker.New(s.Net, s.Wifi, attackerDelay, opts...)

	// Parasite machinery on the victim's runtime.
	s.Registry = parasite.NewRegistry()
	attacker.RegisterEvictionBehavior(s.Victim.ScriptRuntime())
	parasite.RegisterBehaviors(s.Victim.ScriptRuntime(), s.Registry)
	return s, nil
}

// vhostSealer opens sealed frames with any of the scenario's TLS hosts'
// keys (the web farm holds every site's certificate).
type vhostSealer struct{ s *Scenario }

func (v vhostSealer) Seal(p []byte) []byte {
	// Responses are sealed with the key of the request's host; the
	// server path seals after serve() recorded the host.
	return httpsim.XORSealer{Key: v.s.lastTLSKey}.Seal(p)
}

func (v vhostSealer) Open(b []byte) ([]byte, int, error) {
	var firstErr error
	for host, isTLS := range v.s.tls {
		if !isTLS {
			continue
		}
		plain, n, err := (httpsim.XORSealer{Key: httpsim.HostKey(host)}).Open(b)
		if err == nil {
			v.s.lastTLSKey = httpsim.HostKey(host)
			return plain, n, nil
		}
		if firstErr == nil || errors.Is(err, httpsim.ErrSealIncomplete) {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = httpsim.ErrSealCorrupt
	}
	return nil, 0, firstErr
}

// AddPage registers a static page on a host.
func (s *Scenario) AddPage(host, path, body string, hdr map[string]string) {
	resp := httpsim.NewResponse(200, []byte(body))
	for k, v := range hdr {
		resp.Header.Set(k, v)
	}
	if !resp.Header.Has("Cache-Control") {
		resp.Header.Set("Cache-Control", "max-age=3600")
	}
	s.sites[host+path] = resp
}

// AddHandler registers a dynamic vhost (the simulated applications).
func (s *Scenario) AddHandler(host string, h httpsim.HandlerFunc) {
	s.handlers[host] = h
}

// SetTLS marks a host as HTTPS-only.
func (s *Scenario) SetTLS(host string, on bool) { s.tls[host] = on }

// Served reports how many times the web farm answered for a URL.
func (s *Scenario) Served(url string) int { return s.served[url] }

// serve is the web farm's dispatch.
func (s *Scenario) serve(req *httpsim.Request) *httpsim.Response {
	if h, ok := s.handlers[req.Host]; ok {
		s.served[req.Host+req.Path]++
		return h(req)
	}
	key := req.Host + req.Path
	resp, ok := s.sites[key]
	if !ok {
		// Name-based lookup: cache-buster queries resolve to the object.
		if i := strings.IndexByte(key, '?'); i >= 0 {
			resp, ok = s.sites[key[:i]]
		}
	}
	if !ok {
		return httpsim.NewResponse(404, []byte("not found"))
	}
	s.served[key]++
	if inm := req.Header.Get("If-None-Match"); inm != "" && inm == resp.Header.Get("Etag") {
		return httpsim.NewResponse(304, nil)
	}
	clone := httpsim.NewResponse(resp.StatusCode, append([]byte(nil), resp.Body...))
	clone.Header = resp.Header.Clone()
	return clone
}

// resolve is the scenario DNS.
func (s *Scenario) resolve(host string) (browser.Endpoint, bool) {
	switch host {
	case MasterHost, JunkHost:
		return browser.Endpoint{Addr: attackerAddr, Port: 80}, true
	default:
		if s.tls[host] {
			return browser.Endpoint{Addr: webAddr, Port: 443, TLS: true}, true
		}
		return browser.Endpoint{Addr: webAddr, Port: 80}, true
	}
}

// Visit loads a page in the victim browser and drains the network.
func (s *Scenario) Visit(host, path string) (*browser.Page, error) {
	return s.VisitWith(s.Victim, host, path, browser.VisitOpts{})
}

// VisitWith loads a page in browser b — the victim or one added with
// AddVictim — with explicit options (a Ctrl+F5 HardReload, or an
// application's OnDocument wiring), and drains the network.
func (s *Scenario) VisitWith(b *browser.Browser, host, path string, opts browser.VisitOpts) (*browser.Page, error) {
	var page *browser.Page
	var verr error
	b.VisitWith(host, path, opts, func(p *browser.Page, err error) { page, verr = p, err })
	s.Net.Run(0)
	if verr != nil {
		return nil, verr
	}
	if page == nil {
		return nil, errors.New("core: page load did not complete")
	}
	return page, nil
}

// Run drains pending network events (after DOM interactions that trigger
// background requests).
func (s *Scenario) Run() { s.Net.Run(0) }

// AttachReplay wires the record/replay subsystem into the scenario: the
// netsim wire tap and the C&C exchange observer feed one replay.Tap,
// which fans canonical events out to rec (capture + divergence
// fingerprint) and/or chk (live verification against a recorded log).
// Either may be nil. Attach before the first Visit so the log covers the
// whole run.
func (s *Scenario) AttachReplay(rec *replay.Recorder, chk *replay.Checker) *replay.Tap {
	t := replay.NewTap(rec, chk)
	t.Attach(s.Net)
	s.CNC.SetExchangeObserver(func(x cnc.Exchange) {
		t.ObserveCNC(x.Bot, x.Path, x.Status, x.RespBytes)
	})
	return t
}

// LeaveAttackerNetwork models the victim moving to its home network: the
// master stops observing and injecting; all servers stay reachable.
func (s *Scenario) LeaveAttackerNetwork() {
	s.Master.Sniffer().Stop()
}

// ScheduleChurn models the victim flapping on and off the network: at
// each cycle start (relative virtual time) the victim's interface stops
// receiving for gap, then rejoins. All instants are scheduled on the
// deterministic virtual clock, so churn composes with link faults
// without disturbing byte-identity. With retransmission enabled the
// transport rides out each outage; without it, in-flight exchanges die.
func (s *Scenario) ScheduleChurn(b *browser.Browser, start, period, gap time.Duration, cycles int) {
	ifc := b.Interface()
	for i := 0; i < cycles; i++ {
		at := start + time.Duration(i)*period
		s.Net.Schedule(at, func() { ifc.SetReceiveDrop(true) })
		s.Net.Schedule(at+gap, func() { ifc.SetReceiveDrop(false) })
	}
}

// AddVictim attaches another victim browser to the WiFi segment — the
// botnet case: the master infects every client it can see, and each
// parasite reports to the C&C under its own bot identity.
func (s *Scenario) AddVictim(addr netsim.Addr, profile string, seed int64) (*browser.Browser, error) {
	p, err := browser.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	b, err := browser.New(s.Net, browser.Config{
		Profile:    p,
		OS:         browser.Win10,
		Segment:    s.Wifi,
		Addr:       addr,
		Resolver:   s.resolve,
		Delay:      victimDelay,
		Seed:       seed,
		Retransmit: s.retransmit,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario extra victim: %w", err)
	}
	attacker.RegisterEvictionBehavior(b.ScriptRuntime())
	parasite.RegisterBehaviors(b.ScriptRuntime(), s.Registry)
	return b, nil
}
