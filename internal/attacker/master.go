// Package attacker implements the paper's master: the eavesdropping
// attacker on the victim's network (§III) with its cache-eviction module
// (§IV), its TCP-injection/infection module (§V), the junk-object server
// that the eviction flood loads, and the in-simulation C&C endpoint
// (§VI-C) adapting the cnc package onto httpsim.
package attacker

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

// ContentKind distinguishes how the parasite is attached (§VI-A).
type ContentKind int

// Content kinds for infection targets.
const (
	KindJS ContentKind = iota + 1
	KindHTML
)

// Target is one object the master wants to infect: a persistent script
// (or HTML page) on a legitimate domain.
type Target struct {
	// Name is the host-qualified path without query ("top1.com/persistent.js").
	Name string
	// Kind selects JS append vs HTML script-tag insertion.
	Kind ContentKind
	// ParasitePayload is the marker payload (the parasite config ID).
	ParasitePayload string
	// Original is the object's genuine content, which the master fetched
	// in advance ("The attacker loads the original object", §VI-A).
	Original []byte
}

// Stats counts master activity.
type Stats struct {
	RequestsSeen    int
	Injections      int
	EvictionScripts int
	SealedSkipped   int
	SealedDecrypted int
}

// Master is the attacker. It taps a network segment, watches HTTP
// requests, and injects spoofed responses.
type Master struct {
	sniffer *tcpsim.Sniffer

	targets map[string]*Target

	// eviction configuration
	evictionOn   bool
	evictTrigger map[string]bool // page hosts whose HTML triggers eviction
	junkHost     string
	junkCount    int
	junkSize     int

	certs []string // hosts of fraudulent certificates (§V Discussion), in grant order

	stats Stats
}

// Option configures a Master.
type Option func(*Master)

// WithFraudulentCert grants the master a mis-issued certificate for host,
// letting it read and forge that host's sealed traffic.
func WithFraudulentCert(host string) Option {
	return func(m *Master) { m.certs = append(m.certs, host) }
}

// New attaches the master's tap to the victim's segment with the given
// proximity delay (it must be closer than the uplink to win the race).
func New(seg *netsim.Segment, proximity time.Duration, opts ...Option) *Master {
	m := &Master{
		targets:      make(map[string]*Target),
		evictTrigger: make(map[string]bool),
		junkCount:    64,
		junkSize:     4096,
	}
	for _, opt := range opts {
		opt(m)
	}
	m.sniffer = tcpsim.NewSniffer(seg, proximity, m.onSegment)
	return m
}

// Stats returns a copy of the counters.
func (m *Master) Stats() Stats { return m.stats }

// Sniffer exposes the master's observation tap (experiments stop it to
// model the victim leaving the attacker's network).
func (m *Master) Sniffer() *tcpsim.Sniffer { return m.sniffer }

// AddTarget arms the infection module for one object.
func (m *Master) AddTarget(t Target) {
	cp := t
	m.targets[t.Name] = &cp
}

// EnableEviction arms the cache-eviction module (§IV): when the victim
// requests an HTML page of any host in triggers, the master injects a
// spoofed response carrying an inline script that floods the cache with
// junkCount objects of junkSize bytes from junkHost.
func (m *Master) EnableEviction(junkHost string, junkCount, junkSize int, triggers ...string) {
	m.evictionOn = true
	m.junkHost = junkHost
	if junkCount > 0 {
		m.junkCount = junkCount
	}
	if junkSize > 0 {
		m.junkSize = junkSize
	}
	for _, h := range triggers {
		m.evictTrigger[h] = true
	}
}

// onSegment reacts to every TCP segment on the tapped network.
func (m *Master) onSegment(o tcpsim.Observed) {
	if len(o.Seg.Payload) == 0 {
		return
	}
	payload := o.Seg.Payload
	var certHost string // the certificate that opened a sealed request
	if httpsim.LooksSealed(payload) {
		// HTTPS stand-in: without a fraudulent certificate the master
		// sees only ciphertext and must stand down.
		host, plain, err := httpsim.OpenAny(m.certs, payload)
		if err != nil {
			m.stats.SealedSkipped++
			return
		}
		m.stats.SealedDecrypted++
		payload, certHost = plain, host
	}
	req, _, err := httpsim.ParseRequest(payload)
	if err != nil {
		return
	}
	m.stats.RequestsSeen++
	name := req.Host + req.PathOnly()

	// Infection module (Fig. 2): requests for armed persistent objects.
	if t, ok := m.targets[name]; ok {
		// The reload-original request (cache-buster query, Fig. 2 step 3)
		// must pass through unmodified, or the page would break — and the
		// paper's step 4 delivers the *unmodified* object.
		if req.Query("t") != "" || req.Query("orig") != "" {
			return
		}
		m.inject(o, m.BuildInfectedResponse(t), certHost)
		return
	}

	// Eviction module (Fig. 1): HTML navigations on trigger hosts.
	if m.evictionOn && m.evictTrigger[req.Host] && isNavigation(req) {
		m.inject(o, m.buildEvictionResponse(), certHost)
		m.stats.EvictionScripts++
	}
}

func isNavigation(req *httpsim.Request) bool {
	p := req.PathOnly()
	return p == "/" || strings.HasSuffix(p, ".html")
}

// inject races the spoofed response against the genuine server, splitting
// it into MSS-sized spoofed segments marshalled directly into pooled
// frames. A non-empty certHost seals the response under that
// certificate's host, as the request it answers was sealed.
func (m *Master) inject(o tcpsim.Observed, resp *httpsim.Response, certHost string) {
	wire := resp.Marshal()
	if certHost != "" {
		wire = httpsim.Seal(certHost, wire)
	}
	tmpl := tcpsim.SpoofSegment(o)
	tap := m.sniffer.Tap()
	const mss = tcpsim.DefaultMSS
	for off := 0; off < len(wire); off += mss {
		end := off + mss
		if end > len(wire) {
			end = len(wire)
		}
		seg := tmpl
		seg.Seq = tcpsim.SeqAdd(tmpl.Seq, off)
		seg.Payload = wire[off:end]
		tap.InjectPayload(o.Dst, o.Src, netsim.ProtoTCP,
			func(dst []byte) []byte { return seg.AppendMarshal(dst) })
	}
	m.stats.Injections++
}

// BuildInfectedResponse constructs the spoofed response for a target:
// original content with the parasite attached, cache lifetime maximised,
// and security headers removed (§VI-A "The cache headers are adapted ...
// In addition, security headers are removed").
func (m *Master) BuildInfectedResponse(t *Target) *httpsim.Response {
	var body []byte
	switch t.Kind {
	case KindHTML:
		body = script.EmbedHTML(t.Original, "parasite", t.ParasitePayload)
	default:
		body = script.Embed(t.Original, "parasite", t.ParasitePayload)
	}
	resp := httpsim.NewResponse(200, body)
	resp.Header.Set("Cache-Control", httpcache.MaxFreshness)
	if t.Kind == KindHTML {
		resp.Header.Set("Content-Type", "text/html")
	} else {
		resp.Header.Set("Content-Type", "application/javascript")
	}
	// No CSP, no HSTS, no X-Frame-Options, no SRI-bearing markup: the
	// attacker controls every header of the spoofed response.
	return resp
}

// buildEvictionResponse is the small inline script of Fig. 1 step 2: it
// loads junk objects until the cache has turned over.
func (m *Master) buildEvictionResponse() *httpsim.Response {
	payload := fmt.Sprintf("%s|%d|%d", m.junkHost, m.junkCount, m.junkSize)
	html := script.EmbedHTML([]byte("<html><body></body></html>"), "evict", payload)
	resp := httpsim.NewResponse(200, html)
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Cache-Control", "no-store") // leave no trace of the attack page
	return resp
}

// RegisterEvictionBehavior gives a browser runtime the semantics of the
// eviction script (this is not victim cooperation — it is the simulator's
// stand-in for "the browser executes whatever JavaScript it receives").
func RegisterEvictionBehavior(rt *script.Runtime) {
	rt.Register("evict", func(env script.Env, payload string) error {
		parts := strings.Split(payload, "|")
		if len(parts) != 3 {
			return fmt.Errorf("attacker: bad eviction payload %q", payload)
		}
		host := parts[0]
		count, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("attacker: bad junk count: %w", err)
		}
		for i := 0; i < count; i++ {
			url := fmt.Sprintf("%s/junk%03d.jpg", host, i)
			env.AddImage(url, nil)
		}
		return nil
	})
}
