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

// Site is one synthetic domain. A Site is read-only after Generate:
// every page and object state is spelled from its fields on demand, so
// concurrent crawls of one site share nothing they write.
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

	// seed keys the site's content hashes.
	seed int64
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

// MaxScripts is the most script objects a site carries: a site with
// JavaScript has 2 to MaxScripts.
const MaxScripts = 14

// Generate builds the population. Marginals (paper §V, §VI, Fig. 5):
//
//	HTTPS adoption      79%  (21% plain HTTP, §V)
//	vulnerable SSL       7%  (SSL2.0/SSL3.0, §V)
//	responders        ~89.5% (13,419 of 15,000, §V)
//	no HSTS           67.92% of responders; 545 preloaded (§V)
//	CSP header         4.7%  of pages, 15.3% of those deprecated (Fig. 5)
//	Google Analytics    63%  (§VI-B1)
//
// The sites live in one slab that Corpus.Sites points into.
func Generate(p Params) *Corpus {
	if p.Sites <= 0 {
		p.Sites = DefaultSites
	}
	rng := rand.New(rand.NewSource(p.Seed))
	slab := make([]Site, p.Sites)
	c := &Corpus{Params: p, Sites: make([]*Site, p.Sites)}
	for i := range slab {
		generateSite(&slab[i], rng, i+1, p.Seed)
		c.Sites[i] = &slab[i]
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

// generateSite fills s, a zero Site, with the site at rank, drawing
// from rng.
func generateSite(s *Site, rng *rand.Rand, rank int, seed int64) {
	s.Rank = rank
	s.Host = siteHost(rank)
	s.seed = seed + int64(rank)*7919
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
	// (Fig. 3). Objects is sized once: the scripts, at most 7 images
	// and the stylesheet.
	scripts := 0
	if rng.Float64() < 0.885 {
		scripts = 2 + rng.Intn(MaxScripts-1)
	}
	s.Objects = make([]ObjectSpec, 0, scripts+len(mediaBases)+1)
	if scripts > 0 {
		// 85.1% of JS-carrying sites keep exactly one name-eternal script
		// (0.885 × 0.851 ≈ 75.3%, the Fig. 3 100-day floor); all other
		// scripts churn with periods up to ~80 days, which produces the
		// gradual decline from ≈87.5% at the 5-day window.
		eternalIdx := -1
		if rng.Float64() < 0.851 {
			eternalIdx = rng.Intn(scripts)
		}
		// A non-eternal site's persistence ends when its longest-lived
		// script is renamed. Drawing a site-level horizon L first and
		// capping every object's period by it spreads the drop times
		// uniformly over the study, producing Fig. 3's gradual decline
		// (instead of max-of-n periods clustering near the cap).
		horizon := 3 + rng.Intn(97)
		for i := 0; i < scripts; i++ {
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
	// on pages). The loop condition draws on every pass, so hoisting it
	// would change the corpus.
	for i := 0; i < 2+rng.Intn(6); i++ {
		s.Objects = append(s.Objects, ObjectSpec{
			Base: mediaBases[i],
			Kind: KindImg, Size: 1024 + rng.Intn(32768),
		})
	}
	s.Objects = append(s.Objects, ObjectSpec{
		Base: "css/main", Kind: KindCSS, Size: 4096,
	})
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
	states := make([]ObjectState, 0, len(s.Objects)+1)
	// The name and the hash are spelled into separate buffers: the
	// conversions below may run after both appends.
	var name [64]byte
	var hash [hashLen]byte
	for i := range s.Objects {
		states = append(states, ObjectState{
			Name: string(s.appendName(name[:0], i, day)),
			Hash: string(s.appendHash(hash[:0], i, day)),
			Kind: s.Objects[i].Kind,
			Size: s.Objects[i].Size,
		})
	}
	if s.UsesGoogleAnalytics {
		states = append(states, ObjectState{
			Name: analyticsName,
			Hash: analyticsHash,
			Kind: KindJS,
			Size: 17000,
		})
	}
	return states
}

// The shared analytics script (§VI-B1): one name and one content on
// every site that embeds it.
const (
	analyticsName = "analytics.example/ga.js"
	analyticsHash = "ga-shared-v1"
)

// appendName appends object i's name on a day to dst: host/base.ext,
// with the rename generation before the extension (host/base.gen.ext)
// for a periodically renamed object.
func (s *Site) appendName(dst []byte, i, day int) []byte {
	spec := &s.Objects[i]
	dst = append(dst, s.Host...)
	dst = append(dst, '/')
	dst = append(dst, spec.Base...)
	dst = append(dst, '.')
	if spec.RenamePeriod != 0 {
		dst = strconv.AppendInt(dst, int64(gen(spec.RenamePeriod, day)), 10)
		dst = append(dst, '.')
	}
	return append(dst, spec.Kind.ext()...)
}

// hashLen is the length of a site object's hex content hash.
const hashLen = 2 * 8

// appendHash appends object i's content hash on a day to dst: the hex
// of the first 8 bytes of a SHA-256 over the site seed, the index and
// the content generation.
func (s *Site) appendHash(dst []byte, i, day int) []byte {
	var in [24]byte
	binary.BigEndian.PutUint64(in[0:8], uint64(s.seed))
	binary.BigEndian.PutUint64(in[8:16], uint64(i))
	binary.BigEndian.PutUint64(in[16:24], uint64(gen(s.Objects[i].ContentPeriod, day)))
	sum := sha256.Sum256(in[:])
	return hex.AppendEncode(dst, sum[:8])
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

// Page markup fragments. The body is assembled by exact-size append
// instead of strings.Builder+Fprintf: a length pass over the site's
// specs gives the final byte count up front, and the names and hashes
// are then spelled straight into the page.
const (
	pagePrefix   = "<html><head>"
	pageBodyOpen = "</head><body>"
	pageSuffix   = "</body></html>"
	bannerOpen   = "<h1>"
	bannerRank   = " (rank "
	bannerClose  = ")</h1>"
	scriptOpen   = `<script src="//`
	scriptHash   = `" data-hash="`
	scriptClose  = `"></script>`
	cssOpen      = `<link rel="stylesheet" href="//`
	imgOpen      = `<img src="//`
	tagClose     = `">`

	analyticsScript = scriptOpen + analyticsName + scriptHash + analyticsHash + scriptClose
)

// markup returns the markup before and after an object's name on a
// page; a script's data-hash attribute goes between the name and post.
func (k ObjectKind) markup() (pre, post string) {
	switch k {
	case KindJS:
		return scriptOpen, scriptClose
	case KindCSS:
		return cssOpen, tagClose
	default:
		return imgOpen, tagClose
	}
}

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
	// The length pass spells the rank and each name into scratch.
	var scratch [64]byte
	n := len(pagePrefix) + len(pageBodyOpen) + len(pageSuffix) + len(bannerOpen) + len(s.Host) +
		len(bannerRank) + len(strconv.AppendInt(scratch[:0], int64(s.Rank), 10)) + len(bannerClose)
	for i := range s.Objects {
		pre, post := s.Objects[i].Kind.markup()
		n += len(pre) + len(s.appendName(scratch[:0], i, day)) + len(post)
		if s.Objects[i].Kind == KindJS {
			n += len(scriptHash) + hashLen
		}
	}
	if s.UsesGoogleAnalytics {
		n += len(analyticsScript)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, pagePrefix...)
	for i := range s.Objects {
		pre, post := s.Objects[i].Kind.markup()
		dst = append(dst, pre...)
		dst = s.appendName(dst, i, day)
		if s.Objects[i].Kind == KindJS {
			dst = append(dst, scriptHash...)
			dst = s.appendHash(dst, i, day)
		}
		dst = append(dst, post...)
	}
	if s.UsesGoogleAnalytics {
		dst = append(dst, analyticsScript...)
	}
	dst = append(dst, pageBodyOpen...)
	dst = append(dst, bannerOpen...)
	dst = append(dst, s.Host...)
	dst = append(dst, bannerRank...)
	dst = strconv.AppendInt(dst, int64(s.Rank), 10)
	dst = append(dst, bannerClose...)
	dst = append(dst, pageSuffix...)
	return dst, true
}
