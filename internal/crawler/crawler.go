// Package crawler implements the paper's measurement tooling: the daily
// persistency crawler behind Fig. 3 ("we develop a web crawler to collect
// statistics over 15K-top Alexa pages ... collect hashes over the files
// and names ... ran daily over a period of 100 days") and the security-
// header survey behind Fig. 5 and the §V/§VIII statistics.
//
// The crawler consumes rendered pages as a crawler over the live web
// would, with the synthetic corpus standing in for the Alexa
// population: the persistency crawl scans each rendered body's start
// tags for script names and hashes (dom.ScanTags, in place, no document
// tree), and the header survey reads the response headers. Like a real
// daily crawler that revalidates with an ETag, the persistency crawl
// fetches a site again only on a day its page changed
// (webcorpus.Site.SamePage), so each page version is rendered and
// scanned once.
//
// Crawling is embarrassingly parallel: pages render purely from the
// corpus's deterministic generators, so the daily crawl fans out one
// job per site chunk over every day and the header survey one job per
// site, both through the scenario-fleet runner with per-job counts
// folded in submission order. Counts are integers and addition is
// order-free, so the statistics are bit-identical at any worker count.
package crawler

import (
	"sort"
	"strconv"
	"strings"

	"masterparasite/internal/browser"
	"masterparasite/internal/dom"
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// PersistencyPoint is one measurement day of Fig. 3.
type PersistencyPoint struct {
	Day int `json:"day"`
	// AnyJS is the share of sites serving at least one external script.
	AnyJS float64 `json:"any_js"`
	// PersistentName is the share of sites with at least one script whose
	// *name* has survived since day 0 — the attacker-relevant identity,
	// because caches key by name.
	PersistentName float64 `json:"persistent_name"`
	// PersistentHash is the share with at least one script unchanged in
	// *content* since day 0.
	PersistentHash float64 `json:"persistent_hash"`
}

// PersistencyResult is the Fig. 3 dataset.
type PersistencyResult struct {
	Sites  int                `json:"sites"`
	Points []PersistencyPoint `json:"points"`
}

// At returns the point for a day (or the last one before it; the first
// point when day precedes the whole study). Points are sorted by day,
// so the lookup is a binary search. An empty result — a corpus with no
// crawlable site at all — yields the zero point.
func (r *PersistencyResult) At(day int) PersistencyPoint {
	if len(r.Points) == 0 {
		return PersistencyPoint{}
	}
	i := sort.Search(len(r.Points), func(i int) bool { return r.Points[i].Day > day })
	if i == 0 {
		return r.Points[0]
	}
	return r.Points[i-1]
}

// Table flattens the dataset — one row per measurement day — for the
// CSV and Markdown artifact renderers.
func (r *PersistencyResult) Table() (header []string, rows [][]string) {
	header = []string{"day", "any_js", "persistent_hash", "persistent_name"}
	pct := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, p := range r.Points {
		rows = append(rows, []string{strconv.Itoa(p.Day), pct(p.AnyJS), pct(p.PersistentHash), pct(p.PersistentName)})
	}
	return header, rows
}

// sameSiteScripts renders one site's page for a day into page, scans
// it, and calls fn with the src and data-hash of each same-site script.
// Only same-site scripts are counted for the persistence study; shared
// third-party files (the analytics vector of §VI-B1) are tracked
// separately because they would otherwise dominate the statistic. src
// and hash alias page (dom.ScanTags' lifetime rule), so they are valid
// only during fn unless nothing rewrites page. sameSiteScripts returns
// the page buffer for the next render, and false when the site does not
// answer.
func sameSiteScripts(site *webcorpus.Site, day int, page []byte, fn func(src, hash string)) ([]byte, bool) {
	page, ok := site.AppendPage(page[:0], day)
	if !ok {
		return page, false
	}
	dom.ScanTags(page, func(tag string, attrs dom.AttrList) {
		if tag != "script" {
			return
		}
		src := strings.TrimPrefix(attrs.Get("src"), "//")
		if src == "" {
			return
		}
		path := src
		if q := strings.IndexByte(path, '?'); q >= 0 {
			path = path[:q]
		}
		if !strings.HasSuffix(path, ".js") {
			return
		}
		if rest, ok := strings.CutPrefix(src, site.Host); !ok || !strings.HasPrefix(rest, "/") {
			return // third-party
		}
		fn(src, attrs.Get("data-hash"))
	})
	return page, true
}

// baseline is the day-0 crawl of a corpus, in site order: each site's
// same-site scripts (nil for a site with none, the JS-free fast path),
// and whether it answered. Both measurements compare later days against
// it. Each site renders into a page buffer of its own that nothing
// reuses, so the scripts' srcs and hashes alias those pages.
type baseline struct {
	scripts []siteScripts
	ok      []bool
	crawled int
}

// siteScripts is one site's day-0 same-site scripts, one entry per src.
// A site has at most webcorpus.MaxScripts, so one slice holds them all
// and a scan finds an entry without a map's allocations.
type siteScripts []script

// script is one baseline script: its src and its data-hash.
type script struct{ src, hash string }

// find returns the index of src's entry, or -1 when src was not served
// on day 0.
func (ss siteScripts) find(src string) int {
	for i := range ss {
		if ss[i].src == src {
			return i
		}
	}
	return -1
}

// crawlBaseline crawls every site once on day 0, one job per site.
func crawlBaseline(r *runner.Runner, c *webcorpus.Corpus) *baseline {
	type siteBase struct {
		scripts siteScripts
		ok      bool
	}
	crawls, _ := runner.Map(r, c.Sites, func(_ int, s *webcorpus.Site) (siteBase, error) {
		var sb siteBase
		_, sb.ok = sameSiteScripts(s, 0, nil, func(src, hash string) {
			if i := sb.scripts.find(src); i >= 0 {
				sb.scripts[i].hash = hash // a repeated src: the later hash wins
				return
			}
			if sb.scripts == nil {
				sb.scripts = make(siteScripts, 0, webcorpus.MaxScripts)
			}
			sb.scripts = append(sb.scripts, script{src, hash})
		})
		return sb, nil
	})
	b := &baseline{
		scripts: make([]siteScripts, len(crawls)),
		ok:      make([]bool, len(crawls)),
	}
	for i, sb := range crawls {
		b.scripts[i] = sb.scripts
		b.ok[i] = sb.ok
		if sb.ok {
			b.crawled++
		}
	}
	return b
}

// siteCounts counts sites per Fig. 3 curve: those serving a same-site
// script, those still serving a baseline script by name, and by name
// and hash. One site's day counts 0 or 1 on each.
type siteCounts struct {
	anyJS, name, hash int
}

// add adds o's counts to c.
func (c *siteCounts) add(o siteCounts) {
	c.anyJS += o.anyJS
	c.name += o.name
	c.hash += o.hash
}

// CrawlPersistency runs the daily crawl for the given number of days and
// produces the Fig. 3 curves against a day-0 baseline crawl. It fans out
// one job per runner.Chunks site chunk over every day. A site is
// crawled again only on a day its page differs from the page it last
// crawled (webcorpus.Site.SamePage, what an ETag revalidation tells a
// real daily crawler); otherwise it keeps its counts from that crawl.
// Per-day counts are integers folded in chunk order, so the curves are
// identical at any worker count.
func CrawlPersistency(r *runner.Runner, c *webcorpus.Corpus, days int) *PersistencyResult {
	if days <= 0 {
		days = webcorpus.StudyDays
	}
	base := crawlBaseline(r, c)
	// Percentages are over successfully crawled sites, as in the paper
	// (its statistics are over the 13,419 responders). An all-404 corpus
	// has no denominator at all: report an empty result instead of
	// dividing the curves by zero.
	res := &PersistencyResult{Sites: base.crawled}
	if base.crawled == 0 {
		return res
	}

	chunks := runner.Chunks(len(c.Sites), r.Workers())
	counts, _ := runner.Map(r, chunks, func(_ int, ch [2]int) ([]siteCounts, error) {
		perDay := make([]siteCounts, days+1)
		var page []byte // one render buffer for the chunk
		for i := ch[0]; i < ch[1]; i++ {
			if !base.ok[i] {
				continue
			}
			site, scripts := c.Sites[i], base.scripts[i]
			// On day 0 every baseline script persists against itself.
			js := 0
			if len(scripts) > 0 {
				js = 1
			}
			now, last := siteCounts{js, js, js}, 0
			for day := 0; day <= days; day++ {
				if !site.SamePage(day, last) {
					now, last = siteCounts{}, day
					page, _ = sameSiteScripts(site, day, page, func(src, hash string) {
						now.anyJS = 1
						if now.hash == 1 {
							return // the day counts on every curve already
						}
						if i := scripts.find(src); i >= 0 {
							now.name = 1
							if hash == scripts[i].hash {
								now.hash = 1
							}
						}
					})
				}
				perDay[day].add(now)
			}
		}
		return perDay, nil
	})
	n := float64(base.crawled)
	for day := 0; day <= days; day++ {
		var total siteCounts
		for _, perDay := range counts {
			total.add(perDay[day])
		}
		res.Points = append(res.Points, PersistencyPoint{
			Day:            day,
			AnyJS:          100 * float64(total.anyJS) / n,
			PersistentName: 100 * float64(total.name) / n,
			PersistentHash: 100 * float64(total.hash) / n,
		})
	}
	return res
}

// SelectTargets returns, per site, the scripts that remained name-stable
// over the whole window — "these scripts are perfect targets to be
// infected with parasites" (§VI-A). It compares a day-0 baseline crawl
// with one crawl on the window's last day. One job per site; the fold
// keeps site order, so the result is identical at any worker count.
func SelectTargets(r *runner.Runner, c *webcorpus.Corpus, window int) map[string][]string {
	base := crawlBaseline(r, c)
	stable, _ := runner.Map(r, c.Sites, func(i int, s *webcorpus.Site) ([]string, error) {
		scripts := base.scripts[i]
		if len(scripts) == 0 {
			return nil, nil
		}
		var names []string
		sameSiteScripts(s, window, nil, func(src, _ string) {
			if scripts.find(src) >= 0 {
				names = append(names, strings.Clone(src))
			}
		})
		sort.Strings(names)
		return names, nil
	})
	out := make(map[string][]string)
	for i, names := range stable {
		if len(names) > 0 {
			out[c.Sites[i].Host] = names
		}
	}
	return out
}

// HeaderSurvey is the Fig. 5 + §V dataset.
type HeaderSurvey struct {
	Sites      int `json:"sites"`
	Responders int `json:"responders"`

	// §V Discussion (100K-top measurement, same shares).
	NoHTTPSShare float64 `json:"no_https_share"` // % of sites with no HTTPS at all
	VulnSSLShare float64 `json:"vuln_ssl_share"` // % with SSL2.0/SSL3.0

	// §V HSTS measurement (of responders).
	NoHSTSCount     int     `json:"no_hsts_count"`
	NoHSTSShare     float64 `json:"no_hsts_share"`
	PreloadCount    int     `json:"preload_count"`
	StrippableShare float64 `json:"strippable_share"` // responders not preloaded: SSL-strippable

	// Fig. 5 CSP statistics.
	CSPHeaderShare  float64        `json:"csp_header_share"` // % of pages supplying any CSP header
	CSPRulesShare   float64        `json:"csp_rules_share"`  // % supplying actual rules
	DeprecatedShare float64        `json:"deprecated_share"` // % of CSP pages on deprecated headers
	VersionCounts   map[string]int `json:"version_counts"`
	ConnectSrcUses  int            `json:"connect_src_uses"`
	ConnectSrcStar  int            `json:"connect_src_star"`

	// AnalyticsShare is the §VI-B1 shared-file statistic (% of sites
	// embedding the shared analytics script), folded into the survey
	// dataset by the fig5 artifact.
	AnalyticsShare float64 `json:"analytics_share"`
}

// Table flattens the survey into metric/value rows for the CSV and
// Markdown artifact renderers.
func (s *HeaderSurvey) Table() (header []string, rows [][]string) {
	header = []string{"metric", "value"}
	num := func(v int) string { return strconv.Itoa(v) }
	pct := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	rows = [][]string{
		{"sites", num(s.Sites)},
		{"responders", num(s.Responders)},
		{"no_https_share", pct(s.NoHTTPSShare)},
		{"vuln_ssl_share", pct(s.VulnSSLShare)},
		{"no_hsts_count", num(s.NoHSTSCount)},
		{"no_hsts_share", pct(s.NoHSTSShare)},
		{"preload_count", num(s.PreloadCount)},
		{"strippable_share", pct(s.StrippableShare)},
		{"csp_header_share", pct(s.CSPHeaderShare)},
		{"csp_rules_share", pct(s.CSPRulesShare)},
		{"deprecated_share", pct(s.DeprecatedShare)},
		{"connect_src_uses", num(s.ConnectSrcUses)},
		{"connect_src_star", num(s.ConnectSrcStar)},
		{"analytics_share", pct(s.AnalyticsShare)},
	}
	versions := make([]string, 0, len(s.VersionCounts))
	for v := range s.VersionCounts {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		rows = append(rows, []string{"version:" + v, num(s.VersionCounts[v])})
	}
	return header, rows
}

// siteObs is one site's contribution to the header survey, produced by
// an independent crawl job and folded into the totals in site order.
type siteObs struct {
	noHTTPS, vulnSSL bool
	responds         bool
	noHSTS, preload  bool
	cspVersion       string // "" = no CSP
	cspRules         bool
	cspDeprecated    bool
	connectSrc       bool
	connectSrcStar   bool
}

// SurveyHeaders crawls every responding site's front page once and
// tallies the security-header statistics. One job per site.
func SurveyHeaders(r *runner.Runner, c *webcorpus.Corpus) *HeaderSurvey {
	obs, _ := runner.Map(r, c.Sites, func(_ int, site *webcorpus.Site) (siteObs, error) {
		var o siteObs
		switch site.SSL {
		case webcorpus.SSLNone:
			o.noHTTPS = true
		case webcorpus.SSLv2, webcorpus.SSLv3:
			o.vulnSSL = true
		}
		resp := site.RenderPage(0)
		if resp.StatusCode != 200 {
			return o, nil
		}
		o.responds = true
		o.noHSTS = !resp.Header.Has("Strict-Transport-Security")
		o.preload = site.HSTSPreload
		csp := browser.CSPFromHeaders(resp.Header.Get)
		if csp.Present {
			o.cspRules = len(csp.Directives) > 0
			o.cspDeprecated = csp.Deprecated
			switch {
			case !csp.Deprecated:
				o.cspVersion = "CSP"
			case resp.Header.Get(browser.CSPHeaderDeprecated) != "":
				o.cspVersion = "X-CSP"
			default:
				o.cspVersion = "X-Webkit-CSP"
			}
			o.connectSrc = csp.HasDirective("connect-src")
			o.connectSrcStar = o.connectSrc && csp.Wildcard("connect-src")
		}
		return o, nil
	})

	s := &HeaderSurvey{Sites: len(c.Sites), VersionCounts: make(map[string]int)}
	var noHTTPS, vulnSSL int
	var cspAny, cspRules, cspDeprecated int
	for _, o := range obs {
		if o.noHTTPS {
			noHTTPS++
		}
		if o.vulnSSL {
			vulnSSL++
		}
		if !o.responds {
			continue
		}
		s.Responders++
		if o.noHSTS {
			s.NoHSTSCount++
		}
		if o.preload {
			s.PreloadCount++
		}
		if o.cspVersion != "" {
			cspAny++
			if o.cspRules {
				cspRules++
			}
			if o.cspDeprecated {
				cspDeprecated++
			}
			s.VersionCounts[o.cspVersion]++
			if o.connectSrc {
				s.ConnectSrcUses++
				if o.connectSrcStar {
					s.ConnectSrcStar++
				}
			}
		}
	}
	n := float64(s.Sites)
	s.NoHTTPSShare = 100 * float64(noHTTPS) / n
	s.VulnSSLShare = 100 * float64(vulnSSL) / n
	if s.Responders > 0 {
		r := float64(s.Responders)
		s.NoHSTSShare = 100 * float64(s.NoHSTSCount) / r
		s.StrippableShare = 100 * float64(s.Responders-s.PreloadCount) / r
	}
	s.CSPHeaderShare = 100 * float64(cspAny) / n
	s.CSPRulesShare = 100 * float64(cspRules) / n
	if cspAny > 0 {
		s.DeprecatedShare = 100 * float64(cspDeprecated) / float64(cspAny)
	}
	return s
}

// AnalyticsShare measures the §VI-B1 shared-file statistic: the fraction
// of sites embedding the shared analytics script.
func AnalyticsShare(c *webcorpus.Corpus) float64 {
	n := 0
	for _, s := range c.Sites {
		if s.UsesGoogleAnalytics {
			n++
		}
	}
	return 100 * float64(n) / float64(len(c.Sites))
}
