// Package core orchestrates the full Master-and-Parasite kill chain on
// the simulated network: victim browser, legitimate web servers, the
// eavesdropping master with its eviction and infection modules, and the
// covert C&C endpoint. The experiments package drives Scenario instances
// to regenerate every table and figure of the paper.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	// Profile is the victim browser; nil means Chrome. Experiments pass
	// purpose-sized caches so eviction floods stay tractable.
	Profile *browser.Profile
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
	// tlsHosts are the hosts served over the sealed channel, sorted: the
	// web farm holds each one's certificate and tries them in this order.
	tlsHosts []string
	// victimIfc is the victim's attachment to the WiFi, which churn
	// switches off and on.
	victimIfc *netsim.Interface
}

// NewScenario assembles the network of Fig. 1/2: victim and attacker on
// the same WiFi segment, web farm and attacker server across the uplink.
// It places every host, in a fixed order (web farm, attacker server,
// victim, then the master's tap), and builds every host's stack from
// the same per-host options.
func NewScenario(cfg Config) (*Scenario, error) {
	if cfg.OS == "" {
		cfg.OS = browser.Win10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var profile browser.Profile
	if cfg.Profile != nil {
		profile = *cfg.Profile
	} else {
		var err error
		if profile, err = browser.ProfileByName("Chrome"); err != nil {
			return nil, err
		}
	}

	s := &Scenario{
		Net:      netsim.New(),
		sites:    make(map[string]*httpsim.Response),
		handlers: make(map[string]httpsim.HandlerFunc),
	}
	s.Wifi = s.Net.MustSegment("public-wifi", wifiLatency)
	if cfg.Link != nil {
		s.Wifi.SetLinkProfile(*cfg.Link)
	}
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
	if _, err := httpsim.NewServer(webStack, 443, s.certs, s.serve); err != nil {
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
	// Every junk reply shares one read-only body: only the server reads
	// it, when it marshals the reply.
	junkBody := bytes.Repeat([]byte("j"), 4096)
	if _, err := httpsim.NewServer(atkStack, 80, nil, func(req *httpsim.Request) *httpsim.Response {
		switch req.Host {
		case MasterHost:
			return cncHandler(req)
		case JunkHost:
			resp := httpsim.NewResponse(200, junkBody)
			resp.Header.Set("Content-Type", "image/jpeg")
			resp.Header.Set("Cache-Control", "public, max-age=31536000")
			return resp
		default:
			return httpsim.NewResponse(404, nil)
		}
	}); err != nil {
		return nil, fmt.Errorf("scenario attacker server: %w", err)
	}

	// Victim browser, on the WiFi.
	if s.victimIfc, err = s.Wifi.Attach(victimAddr, victimDelay, nil); err != nil {
		return nil, fmt.Errorf("scenario victim attach: %w", err)
	}
	victimOpts := stackOpts(cfg.Seed)
	if cfg.ReassemblyPolicy != 0 {
		victimOpts = append(victimOpts, tcpsim.WithReassembly(cfg.ReassemblyPolicy))
	}
	victimStack := tcpsim.NewStack(s.Net, s.victimIfc, victimOpts...)
	if s.Victim, err = browser.New(s.Net, victimStack, browser.Config{
		Profile: profile, OS: cfg.OS, Resolver: s.resolve,
	}); err != nil {
		return nil, fmt.Errorf("scenario victim: %w", err)
	}

	// The master's tap, closest to the victim.
	s.Master = attacker.New(s.Wifi, attackerDelay, cfg.FraudulentCertHosts)

	// Parasite machinery on the victim's runtime.
	s.Registry = parasite.NewRegistry()
	attacker.RegisterEvictionBehavior(s.Victim.ScriptRuntime())
	parasite.RegisterBehaviors(s.Victim.ScriptRuntime(), s.Registry)
	return s, nil
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

// SetTLS marks a host as HTTPS-only, or on false as plaintext again.
func (s *Scenario) SetTLS(host string, on bool) {
	i, found := slices.BinarySearch(s.tlsHosts, host)
	switch {
	case on && !found:
		s.tlsHosts = slices.Insert(s.tlsHosts, i, host)
	case !on && found:
		s.tlsHosts = slices.Delete(s.tlsHosts, i, i+1)
	}
}

// certs lists the hosts whose certificates the web farm's HTTPS
// listener holds.
func (s *Scenario) certs() []string { return s.tlsHosts }

// serve is the web farm's dispatch. A static page is served as it is
// stored: the server only marshals it.
func (s *Scenario) serve(req *httpsim.Request) *httpsim.Response {
	if h, ok := s.handlers[req.Host]; ok {
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
	if inm := req.Header.Get("If-None-Match"); inm != "" && inm == resp.Header.Get("Etag") {
		return httpsim.NewResponse(304, nil)
	}
	return resp
}

// resolve is the scenario DNS.
func (s *Scenario) resolve(host string) (browser.Endpoint, bool) {
	switch host {
	case MasterHost, JunkHost:
		return browser.Endpoint{Addr: attackerAddr, Port: 80}, true
	default:
		if _, tls := slices.BinarySearch(s.tlsHosts, host); tls {
			return browser.Endpoint{Addr: webAddr, Port: 443, TLS: true}, true
		}
		return browser.Endpoint{Addr: webAddr, Port: 80}, true
	}
}

// Visit loads a page in the victim browser and drains the network.
func (s *Scenario) Visit(host, path string) (*browser.Page, error) {
	return s.VisitWith(host, path, browser.VisitOpts{})
}

// VisitWith loads a page in the victim browser with explicit options (a
// Ctrl+F5 HardReload, or an application's OnDocument wiring), and
// drains the network.
func (s *Scenario) VisitWith(host, path string, opts browser.VisitOpts) (*browser.Page, error) {
	var page *browser.Page
	var verr error
	s.Victim.VisitWith(host, path, opts, func(p *browser.Page, err error) { page, verr = p, err })
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
// which records canonical events into rec (capture + divergence
// fingerprint). Attach before the first Visit so the log covers the
// whole run.
func (s *Scenario) AttachReplay(rec *replay.Recorder) {
	t := replay.NewTap(rec)
	t.Attach(s.Net)
	s.CNC.SetExchangeObserver(func(x cnc.Exchange) {
		t.ObserveCNC(x.Bot, x.Path, x.Status, x.RespBytes)
	})
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
func (s *Scenario) ScheduleChurn(start, period, gap time.Duration, cycles int) {
	for i := 0; i < cycles; i++ {
		at := start + time.Duration(i)*period
		s.Net.Schedule(at, func() { s.victimIfc.SetReceiveDrop(true) })
		s.Net.Schedule(at+gap, func() { s.victimIfc.SetReceiveDrop(false) })
	}
}
