// Package crawler implements the paper's measurement tooling: the daily
// persistency crawler behind Fig. 3 ("we develop a web crawler to collect
// statistics over 15K-top Alexa pages ... collect hashes over the files
// and names ... ran daily over a period of 100 days") and the security-
// header survey behind Fig. 5 and the §V/§VIII statistics.
//
// The crawler consumes rendered pages as a crawler over the live web
// would, with the synthetic corpus standing in for the Alexa
// population: the persistency crawl scans each rendered body's start
// tags for script names and hashes (dom.ScanTags, no document tree),
// and the header survey reads the response headers.
//
// Crawling is embarrassingly parallel: pages render purely from the
// corpus's deterministic generators, so the daily crawl tiles into
// (site-chunk × day) jobs and the header survey fans out one job per
// site, both through the scenario-fleet runner with per-tile counts
// folded in submission order. Counts are integers and addition is
// order-free, so the statistics are bit-identical at any worker count
// and any tiling.
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

// scriptObs is what the crawler extracts from one page: same-site script
// names mapped to their content hashes. The map is nil for pages that
// carry no qualifying script — the common case on a crawl — so the
// JS-free fast path allocates nothing beyond the scan itself.
type scriptObs struct {
	scripts map[string]string // name → hash
}

// crawl renders one site's page for a day into page, scans it, and adds
// its scripts to o, allocating o's map on the first one. Only same-site
// scripts are counted for the persistence study; shared third-party
// files (the analytics vector of §VI-B1) are tracked separately because
// they would otherwise dominate the statistic. crawl returns the page
// buffer for the next render, and false when the site does not answer.
func (o *scriptObs) crawl(site *webcorpus.Site, day int, page []byte) ([]byte, bool) {
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
		if o.scripts == nil {
			o.scripts = make(map[string]string, 8)
		}
		o.scripts[src] = attrs.Get("data-hash")
	})
	return page, true
}

// Baseline is the memoized day-0 crawl of a corpus: one observation per
// site, in site order. CrawlPersistencyFrom and SelectTargetsFrom both
// compare later days against it, so a caller holding both can crawl
// day 0 once instead of once per consumer.
type Baseline struct {
	corpus  *webcorpus.Corpus
	obs     []scriptObs
	ok      []bool
	crawled int
}

// Crawled reports how many sites answered the baseline crawl.
func (b *Baseline) Crawled() int { return b.crawled }

// CrawlBaseline crawls every site once on day 0, one job per site.
func CrawlBaseline(r *runner.Runner, c *webcorpus.Corpus) *Baseline {
	type obsOK struct {
		obs scriptObs
		ok  bool
	}
	crawls, _ := runner.Map(r, c.Sites, func(_ int, s *webcorpus.Site) (obsOK, error) {
		var o scriptObs
		_, ok := o.crawl(s, 0, nil)
		return obsOK{obs: o, ok: ok}, nil
	})
	b := &Baseline{
		corpus: c,
		obs:    make([]scriptObs, len(crawls)),
		ok:     make([]bool, len(crawls)),
	}
	for i, cr := range crawls {
		b.obs[i] = cr.obs
		b.ok[i] = cr.ok
		if cr.ok {
			b.crawled++
		}
	}
	return b
}

// dayTile is one unit of the crawl fan-out: one measurement day over a
// contiguous chunk of the corpus.
type dayTile struct {
	day    int
	lo, hi int
}

// tileCounts is a tile's fold contribution — plain integer counts, so
// folding is associative and the totals cannot depend on scheduling.
type tileCounts struct {
	anyJS, persName, persHash int
}

// CrawlPersistency runs the daily crawl for the given number of days and
// produces the Fig. 3 curves, crawling day 0 itself. Use CrawlBaseline +
// CrawlPersistencyFrom to share the baseline with target selection.
func CrawlPersistency(r *runner.Runner, c *webcorpus.Corpus, days int) *PersistencyResult {
	return CrawlPersistencyFrom(r, CrawlBaseline(r, c), days)
}

// CrawlPersistencyFrom produces the Fig. 3 curves against an existing
// day-0 baseline. The measurement fans out as (site-chunk × day) tiles
// rather than one monolithic all-sites job per day, so a wide worker
// pool stays load-balanced even when the study has fewer days than the
// pool has workers; per-tile integer counts are folded in day order.
func CrawlPersistencyFrom(r *runner.Runner, base *Baseline, days int) *PersistencyResult {
	if days <= 0 {
		days = webcorpus.StudyDays
	}
	c := base.corpus
	crawled := base.crawled
	// Percentages are over successfully crawled sites, as in the paper
	// (its statistics are over the 13,419 responders). An all-404 corpus
	// has no denominator at all: report an empty result instead of
	// dividing the curves by zero.
	res := &PersistencyResult{Sites: crawled}
	if crawled == 0 {
		return res
	}

	// Day 0 needs no second crawl: every baseline trivially persists
	// against itself, so all three curves start at the share of crawled
	// sites serving at least one script.
	withJS := 0
	for i := range base.obs {
		if base.ok[i] && len(base.obs[i].scripts) > 0 {
			withJS++
		}
	}
	day0Share := 100 * float64(withJS) / float64(crawled)
	res.Points = append(res.Points, PersistencyPoint{
		Day: 0, AnyJS: day0Share, PersistentName: day0Share, PersistentHash: day0Share,
	})

	chunks := runner.Chunks(len(c.Sites), r.Workers())
	tiles := make([]dayTile, 0, days*len(chunks))
	for day := 1; day <= days; day++ {
		for _, ch := range chunks {
			tiles = append(tiles, dayTile{day: day, lo: ch[0], hi: ch[1]})
		}
	}
	counts, _ := runner.Map(r, tiles, func(_ int, t dayTile) (tileCounts, error) {
		var tc tileCounts
		var page []byte   // one render buffer for the tile
		var obs scriptObs // one observation map, cleared per site
		for i := t.lo; i < t.hi; i++ {
			if !base.ok[i] {
				continue
			}
			clear(obs.scripts)
			var ok bool
			if page, ok = obs.crawl(c.Sites[i], t.day, page); !ok {
				continue
			}
			if len(obs.scripts) > 0 {
				tc.anyJS++
			}
			name := false
			hash := false
			for n, baseHash := range base.obs[i].scripts {
				if dayHash, live := obs.scripts[n]; live {
					name = true
					if dayHash == baseHash {
						hash = true
						break
					}
				}
			}
			if name {
				tc.persName++
			}
			if hash {
				tc.persHash++
			}
		}
		return tc, nil
	})
	n := float64(crawled)
	perChunk := len(chunks)
	for day := 1; day <= days; day++ {
		var total tileCounts
		for _, tc := range counts[(day-1)*perChunk : day*perChunk] {
			total.anyJS += tc.anyJS
			total.persName += tc.persName
			total.persHash += tc.persHash
		}
		res.Points = append(res.Points, PersistencyPoint{
			Day:            day,
			AnyJS:          100 * float64(total.anyJS) / n,
			PersistentName: 100 * float64(total.persName) / n,
			PersistentHash: 100 * float64(total.persHash) / n,
		})
	}
	return res
}

// SelectTargets returns, per site, the scripts that remained name-stable
// over the whole window — "these scripts are perfect targets to be
// infected with parasites" (§VI-A). It crawls its own baseline; use
// SelectTargetsFrom to reuse one already crawled.
func SelectTargets(c *webcorpus.Corpus, window int) map[string][]string {
	return SelectTargetsFrom(runner.New(1), CrawlBaseline(runner.New(1), c), window)
}

// SelectTargetsFrom selects name-stable scripts against an existing
// day-0 baseline, crawling each site only once (on the window's last
// day) instead of re-crawling day 0. One job per site; the fold keeps
// site order, so the result is identical at any worker count.
func SelectTargetsFrom(r *runner.Runner, base *Baseline, window int) map[string][]string {
	c := base.corpus
	stable, _ := runner.Map(r, c.Sites, func(i int, s *webcorpus.Site) ([]string, error) {
		if !base.ok[i] || len(base.obs[i].scripts) == 0 {
			return nil, nil
		}
		var last scriptObs
		if _, ok := last.crawl(s, window, nil); !ok {
			return nil, nil
		}
		var names []string
		for n := range base.obs[i].scripts {
			if _, live := last.scripts[n]; live {
				names = append(names, n)
			}
		}
		// The baseline map iterates in random order; sort so the
		// selection is reproducible run to run.
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
