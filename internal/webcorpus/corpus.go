// Package webcorpus generates the synthetic Alexa-style web population
// that stands in for the paper's 15K-top / 100K-top crawls (§V, §VI-A,
// §VIII). The paper's numbers are population statistics; this generator is
// calibrated to the published marginals and the crawler package then
// *measures* them, so the measurement pipeline — daily snapshots, name and
// hash persistence, security-header survey — is fully exercised.
//
// Everything is deterministic in (Seed, Rank): re-generating a corpus, or
// asking for any site's state on any day, always yields the same web.
package webcorpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"masterparasite/internal/httpsim"
)

// ObjectKind classifies a site object.
type ObjectKind int

// Object kinds found on the synthetic pages.
const (
	KindJS ObjectKind = iota + 1
	KindCSS
	KindImg
)

// String names the kind.
func (k ObjectKind) String() string {
	switch k {
	case KindJS:
		return "js"
	case KindCSS:
		return "css"
	case KindImg:
		return "img"
	default:
		return "unknown"
	}
}

// ext maps kinds to file extensions.
func (k ObjectKind) ext() string {
	switch k {
	case KindJS:
		return "js"
	case KindCSS:
		return "css"
	default:
		return "png"
	}
}

// ObjectSpec is the churn process of one object: how often its name and
// its content change. Period 0 means "never within the study".
type ObjectSpec struct {
	Base          string
	Kind          ObjectKind
	RenamePeriod  int // days between renames; 0 = name-eternal
	ContentPeriod int // days between content changes; 0 = content-eternal
	Size          int
}

// ObjectState is one object's identity on a given day.
type ObjectState struct {
	// Name is the host-qualified URL path, the browser cache key.
	Name string
	// Hash is the content identity.
	Hash string
	Kind ObjectKind
	Size int

	// digest is a site object's content identity before it is spelled
	// in hex: the pages render it straight from here, and Hash stays
	// empty until ObjectsOn spells it.
	digest uint64
}

// SSLVersion labels a site's TLS configuration for the §V measurement.
type SSLVersion string

// TLS configuration classes.
const (
	SSLNone   SSLVersion = "none"    // plain HTTP (21% of 100K-top)
	SSLv2     SSLVersion = "SSLv2"   // vulnerable
	SSLv3     SSLVersion = "SSLv3"   // vulnerable
	TLSModern SSLVersion = "TLS1.2+" // fine
)

// CSPConfig is a site's Content-Security-Policy situation (Fig. 5).
type CSPConfig struct {
	Present    bool
	Deprecated bool   // served under X-Content-Security-Policy / X-Webkit-CSP
	HeaderName string // actual header used
	Value      string // policy text ("" = header present but empty rules)
	HasRules   bool
	ConnectSrc bool // configures connect-src
	Wildcard   bool // connect-src *
}

// Site is one synthetic domain.
type Site struct {
	Rank int
	Host string

	// Responds reports whether the host answers at all (the paper's 15K
	// crawl got 13,419 HTTP(S) responders).
	Responds bool

	SSL         SSLVersion
	HSTS        bool
	HSTSPreload bool
	CSP         CSPConfig

	// UsesGoogleAnalytics marks the shared-file propagation vector
	// (§VI-B1: 63% of 1M-top domains embed the same analytics script).
	UsesGoogleAnalytics bool

	Objects []ObjectSpec

	seed int64
	memo siteMemo
}

// siteMemo caches the site's object-churn timeline. Names and content
// hashes are pure functions of (object index, generation), and a
// generation spans many study days, so the daily crawl re-derives the
// same handful of strings and SHA-256 digests thousands of times —
// memoizing them per generation turns ObjectsOn and RenderPage into
// lookups. A hash is kept as its digest's first 8 bytes and spelled in
// hex only where a page or an ObjectState needs it. Sites are crawled
// concurrently by the scenario fleet, so the generation maps are
// guarded by a read-mostly lock.
type siteMemo struct {
	once sync.Once

	// eternalNames[i] is the day-independent name of object i when it
	// never renames ("" for periodically renamed objects).
	eternalNames []string
	// banner is the constant page trailer "<h1>host (rank N)</h1>".
	banner string

	mu     sync.RWMutex
	names  map[uint64]string // genKey(objIdx, nameGen) → name
	hashes map[uint64]uint64 // genKey(objIdx, contentGen) → digest prefix
}

// genKey packs an object index and a generation into one map key.
func genKey(objIdx, gen int) uint64 {
	return uint64(objIdx)<<32 | uint64(uint32(gen))
}

// ensureMemo initialises the timeline cache on first use.
func (s *Site) ensureMemo() {
	s.memo.once.Do(func() {
		s.memo.eternalNames = make([]string, len(s.Objects))
		for i, spec := range s.Objects {
			if spec.RenamePeriod == 0 {
				s.memo.eternalNames[i] = s.Host + "/" + spec.Base + "." + spec.Kind.ext()
			}
		}
		s.memo.banner = "<h1>" + s.Host + " (rank " + strconv.Itoa(s.Rank) + ")</h1>"
		s.memo.names = make(map[uint64]string)
		s.memo.hashes = make(map[uint64]uint64)
	})
}

// objectName returns the memoized name of object i at a rename
// generation.
func (s *Site) objectName(i int, spec *ObjectSpec, nameGen int) string {
	if spec.RenamePeriod == 0 {
		return s.memo.eternalNames[i]
	}
	key := genKey(i, nameGen)
	s.memo.mu.RLock()
	name, ok := s.memo.names[key]
	s.memo.mu.RUnlock()
	if ok {
		return name
	}
	name = s.Host + "/" + spec.Base + "." + strconv.Itoa(nameGen) + "." + spec.Kind.ext()
	s.memo.mu.Lock()
	s.memo.names[key] = name
	s.memo.mu.Unlock()
	return name
}

// Params configures corpus generation.
type Params struct {
	Sites int
	Seed  int64
}

// Corpus is a deterministic synthetic web population.
type Corpus struct {
	Sites  []*Site
	Params Params
}

// Default population sizes used by the experiments.
const (
	DefaultSites = 15000
	StudyDays    = 100
)

// Generate builds the population. Marginals (paper §V, §VI, Fig. 5):
//
//	HTTPS adoption      79%  (21% plain HTTP, §V)
//	vulnerable SSL       7%  (SSL2.0/SSL3.0, §V)
//	responders        ~89.5% (13,419 of 15,000, §V)
//	no HSTS           67.92% of responders; 545 preloaded (§V)
//	CSP header         4.7%  of pages, 15.3% of those deprecated (Fig. 5)
//	Google Analytics    63%  (§VI-B1)
func Generate(p Params) *Corpus {
	if p.Sites <= 0 {
		p.Sites = DefaultSites
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := &Corpus{Params: p, Sites: make([]*Site, 0, p.Sites)}
	for rank := 1; rank <= p.Sites; rank++ {
		c.Sites = append(c.Sites, generateSite(rng, rank, p.Seed))
	}
	return c
}

// Object base names, built once: a site has at most 14 scripts
// ("assets/app00" on) and 7 images ("static/media00" on).
var (
	appBases   = baseNames("assets/app", 14)
	mediaBases = baseNames("static/media", 7)
)

// baseNames returns prefix00, prefix01, … up to n names.
func baseNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// siteHost returns fmt.Sprintf("site%05d.example", rank) in one
// allocation.
func siteHost(rank int) string {
	var buf [32]byte
	b := append(buf[:0], "site"...)
	for w := 10000; w > 1 && rank < w; w /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(rank), 10)
	return string(append(b, ".example"...))
}

func generateSite(rng *rand.Rand, rank int, seed int64) *Site {
	s := &Site{
		Rank: rank,
		Host: siteHost(rank),
		seed: seed + int64(rank)*7919,
	}
	s.Responds = rng.Float64() < 0.8946 // → ≈13419/15000

	// TLS configuration.
	switch r := rng.Float64(); {
	case r < 0.21:
		s.SSL = SSLNone
	case r < 0.21+0.035:
		s.SSL = SSLv3
	case r < 0.21+0.07:
		s.SSL = SSLv2
	default:
		s.SSL = TLSModern
	}
	// HSTS requires HTTPS. Targets: 67.92% of responders send no HSTS
	// (so P(HSTS) = 0.3208 = 0.79 × 0.406) and 96.59% remain
	// SSL-strippable, i.e. P(preloaded) = 0.0341 = P(HSTS) × 0.1063.
	if s.SSL != SSLNone {
		s.HSTS = rng.Float64() < 0.406
		s.HSTSPreload = s.HSTS && rng.Float64() < 0.1063
	}

	// CSP (Fig. 5): ~4.7% supply a header; 15.3% of those deprecated;
	// connect-src configured on a minority, wildcard on ~10.6% of those.
	if rng.Float64() < 0.047 {
		s.CSP.Present = true
		s.CSP.HasRules = rng.Float64() < 0.92 // some headers carry no usable rules
		s.CSP.Deprecated = rng.Float64() < 0.153
		if s.CSP.Deprecated {
			if rng.Float64() < 0.5 {
				s.CSP.HeaderName = "X-Content-Security-Policy"
			} else {
				s.CSP.HeaderName = "X-Webkit-Csp"
			}
		} else {
			s.CSP.HeaderName = "Content-Security-Policy"
		}
		var parts []string
		if s.CSP.HasRules {
			parts = append(parts, "default-src 'self'")
			if rng.Float64() < 0.227 { // → ≈160 connect-src on 705 CSP sites
				s.CSP.ConnectSrc = true
				if rng.Float64() < float64(17)/160 {
					s.CSP.Wildcard = true
					parts = append(parts, "connect-src *")
				} else {
					parts = append(parts, "connect-src 'self'")
				}
			}
		}
		s.CSP.Value = strings.Join(parts, "; ")
	}

	s.UsesGoogleAnalytics = rng.Float64() < 0.63

	// Object population. 88.5% of sites carry JavaScript at all; a site
	// with JS has 2–14 script objects plus styling and images. Churn
	// processes are calibrated so ≈87.5% of sites keep at least one
	// name-stable script over 5 days, decaying to ≈75.3% over 100 days
	// (Fig. 3).
	hasJS := rng.Float64() < 0.885
	if hasJS {
		n := 2 + rng.Intn(13)
		// 85.1% of JS-carrying sites keep exactly one name-eternal script
		// (0.885 × 0.851 ≈ 75.3%, the Fig. 3 100-day floor); all other
		// scripts churn with periods up to ~80 days, which produces the
		// gradual decline from ≈87.5% at the 5-day window.
		eternalIdx := -1
		if rng.Float64() < 0.851 {
			eternalIdx = rng.Intn(n)
		}
		// A non-eternal site's persistence ends when its longest-lived
		// script is renamed. Drawing a site-level horizon L first and
		// capping every object's period by it spreads the drop times
		// uniformly over the study, producing Fig. 3's gradual decline
		// (instead of max-of-n periods clustering near the cap).
		horizon := 3 + rng.Intn(97)
		for i := 0; i < n; i++ {
			spec := ObjectSpec{
				Base: appBases[i],
				Kind: KindJS,
				Size: 2048 + rng.Intn(65536),
			}
			if i == eternalIdx {
				spec.RenamePeriod = 0 // name-eternal
				// Content can still change under a stable name — Fig. 3's
				// hash curve sits below the name curve.
				if rng.Float64() < 0.95 {
					spec.ContentPeriod = 0
				} else {
					spec.ContentPeriod = 5 + rng.Intn(90)
				}
			} else {
				spec.RenamePeriod = 2 + rng.Intn(horizon)
				// A renamed file is a changed file; content sometimes
				// changes even faster.
				if rng.Float64() < 0.5 {
					spec.ContentPeriod = spec.RenamePeriod
				} else {
					spec.ContentPeriod = 1 + spec.RenamePeriod/2
				}
			}
			s.Objects = append(s.Objects, spec)
		}
	}
	// Non-script objects (not part of the persistence study but present
	// on pages).
	for i := 0; i < 2+rng.Intn(6); i++ {
		s.Objects = append(s.Objects, ObjectSpec{
			Base: mediaBases[i],
			Kind: KindImg, Size: 1024 + rng.Intn(32768),
		})
	}
	s.Objects = append(s.Objects, ObjectSpec{
		Base: "css/main", Kind: KindCSS, Size: 4096,
	})
	return s
}

// gen returns which generation of a churn process is live on a day.
func gen(period, day int) int {
	if period <= 0 {
		return 0
	}
	return day / period
}

// SamePage reports whether the site serves the same page on days a and
// b: every object is in the same rename generation and the same
// content generation on both. Images and the stylesheet never churn,
// and the analytics object is constant, so for a site that responds
// this holds exactly when AppendPage renders identical bytes — what an
// ETag revalidation (RFC 9110 §8.8.3, §13.1.2) tells a real daily
// crawler.
func (s *Site) SamePage(a, b int) bool {
	for i := range s.Objects {
		spec := &s.Objects[i]
		if gen(spec.RenamePeriod, a) != gen(spec.RenamePeriod, b) ||
			gen(spec.ContentPeriod, a) != gen(spec.ContentPeriod, b) {
			return false
		}
	}
	return true
}

// ObjectsOn returns the site's object states for a study day.
func (s *Site) ObjectsOn(day int) []ObjectState {
	states := s.appendObjectsOn(make([]ObjectState, 0, len(s.Objects)+1), day)
	var hash [hashLen]byte
	for i := range states {
		if o := &states[i]; o.Hash == "" {
			o.Hash = string(o.appendHash(hash[:0]))
		}
	}
	return states
}

// appendObjectsOn appends the day's object states to dst, drawing names
// and content digests from the per-generation memo; a site object's
// Hash is left for appendHash to spell.
func (s *Site) appendObjectsOn(dst []ObjectState, day int) []ObjectState {
	s.ensureMemo()
	for i := range s.Objects {
		spec := &s.Objects[i]
		dst = append(dst, ObjectState{
			Name:   s.objectName(i, spec, gen(spec.RenamePeriod, day)),
			digest: s.contentHash(i, gen(spec.ContentPeriod, day)),
			Kind:   spec.Kind,
			Size:   spec.Size,
		})
	}
	if s.UsesGoogleAnalytics {
		dst = append(dst, ObjectState{
			Name: "analytics.example/ga.js",
			Hash: "ga-shared-v1",
			Kind: KindJS,
			Size: 17000,
		})
	}
	return dst
}

// hashLen is the length of a site object's hex content hash.
const hashLen = 2 * 8

// appendHash appends the object's content hash to dst: Hash when it is
// set, else the hex spelling of the digest.
func (o *ObjectState) appendHash(dst []byte) []byte {
	if o.Hash != "" {
		return append(dst, o.Hash...)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], o.digest)
	return hex.AppendEncode(dst, b[:])
}

// contentHash returns the memoized digest prefix of object objIdx at a
// content generation: the first 8 bytes of a SHA-256 over the site
// seed, the index and the generation.
func (s *Site) contentHash(objIdx, contentGen int) uint64 {
	key := genKey(objIdx, contentGen)
	s.memo.mu.RLock()
	digest, ok := s.memo.hashes[key]
	s.memo.mu.RUnlock()
	if ok {
		return digest
	}
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(s.seed))
	binary.BigEndian.PutUint64(buf[8:16], uint64(objIdx))
	binary.BigEndian.PutUint64(buf[16:24], uint64(contentGen))
	sum := sha256.Sum256(buf[:])
	digest = binary.BigEndian.Uint64(sum[:8])
	s.memo.mu.Lock()
	s.memo.hashes[key] = digest
	s.memo.mu.Unlock()
	return digest
}

// SecurityHeaders renders the site's response headers.
func (s *Site) SecurityHeaders() httpsim.Header {
	h := httpsim.Header{}
	if s.HSTS {
		h.Set("Strict-Transport-Security", "max-age=63072000")
	}
	if s.CSP.Present {
		h.Set(s.CSP.HeaderName, s.CSP.Value)
	}
	return h
}

// statePool recycles the object-state scratch AppendPage assembles a
// page from; the states never escape the call.
var statePool = sync.Pool{New: func() any { return new([]ObjectState) }}

// Page markup fragments. The body is assembled by exact-size append
// instead of strings.Builder+Fprintf: at full population the crawl
// renders ~1.5M pages, and the fragment lengths plus the memoized name
// and hash lengths give the final byte count up front.
const (
	pagePrefix   = "<html><head>"
	pageBodyOpen = "</head><body>"
	pageSuffix   = "</body></html>"
	scriptOpen   = `<script src="//`
	scriptHash   = `" data-hash="`
	scriptClose  = `"></script>`
	cssOpen      = `<link rel="stylesheet" href="//`
	cssClose     = `">`
	imgOpen      = `<img src="//`
	imgClose     = `">`
)

// RenderPage produces the site's front page for a day: an HTML response
// listing that day's objects, with the site's security headers — what the
// paper's daily crawler fetched and hashed. The rendered bytes are
// identical to the historical strings.Builder+Fprintf rendering.
func (s *Site) RenderPage(day int) *httpsim.Response {
	body, ok := s.AppendPage(nil, day)
	if !ok {
		return httpsim.NewResponse(404, nil)
	}
	resp := httpsim.NewResponse(200, body)
	resp.Header = s.SecurityHeaders()
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Cache-Control", "max-age=600")
	return resp
}

// AppendPage appends the HTML body RenderPage serves for a day to dst
// and returns the extended buffer, so a crawler can render every page
// into one reused buffer. A site that does not respond has no page:
// AppendPage returns dst and false.
func (s *Site) AppendPage(dst []byte, day int) ([]byte, bool) {
	if !s.Responds {
		return dst, false
	}
	scratch := statePool.Get().(*[]ObjectState)
	states := s.appendObjectsOn((*scratch)[:0], day)

	n := len(pagePrefix) + len(pageBodyOpen) + len(s.memo.banner) + len(pageSuffix)
	for i := range states {
		switch o := &states[i]; o.Kind {
		case KindJS:
			hash := len(o.Hash)
			if hash == 0 {
				hash = hashLen
			}
			n += len(scriptOpen) + len(o.Name) + len(scriptHash) + hash + len(scriptClose)
		case KindCSS:
			n += len(cssOpen) + len(o.Name) + len(cssClose)
		case KindImg:
			n += len(imgOpen) + len(o.Name) + len(imgClose)
		}
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, pagePrefix...)
	for i := range states {
		switch o := &states[i]; o.Kind {
		case KindJS:
			dst = append(dst, scriptOpen...)
			dst = append(dst, o.Name...)
			dst = append(dst, scriptHash...)
			dst = o.appendHash(dst)
			dst = append(dst, scriptClose...)
		case KindCSS:
			dst = append(dst, cssOpen...)
			dst = append(dst, o.Name...)
			dst = append(dst, cssClose...)
		case KindImg:
			dst = append(dst, imgOpen...)
			dst = append(dst, o.Name...)
			dst = append(dst, imgClose...)
		}
	}
	dst = append(dst, pageBodyOpen...)
	dst = append(dst, s.memo.banner...)
	dst = append(dst, pageSuffix...)
	*scratch = states
	statePool.Put(scratch)
	return dst, true
}
