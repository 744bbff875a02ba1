// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment runs the real attack code paths against
// the simulated substrate and renders rows comparable to the published
// artefact.
//
// Every experiment is registered as an artifact.Spec in the
// internal/artifact registry (see specs.go for the index and the
// README's "Artifacts, formats, and the run manifest" section for the
// frontend contract): a stable ID, typed params with defaults and
// validation, and a typed, JSON-marshalable dataset behind the
// canonical text rendering. Frontends drive experiments exclusively
// through the registry.
//
// Every experiment is expressed as a batch of independent jobs — one
// scenario per table row, cell, or variant — submitted to a
// runner.Runner. Scenarios are self-contained (each job builds its own
// network, stacks, browser and C&C), and the runner assembles results
// in submission order, so regeneration is byte-identical at any worker
// count.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
)

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "×"
}

func fbool(v bool) string { return strconv.FormatBool(v) }
func fint(v int) string   { return strconv.Itoa(v) }

// scaleProfile shrinks a browser profile's cache so the eviction flood is
// tractable: the paper floods hundreds of MiB; we keep the byte *ratio*
// between flood and budget while scaling both down ~2000×.
func scaleProfile(p browser.Profile) browser.Profile {
	const scale = 2048
	p.CacheSize /= scale
	if p.MemoryLimit > 0 {
		p.MemoryLimit /= scale
	}
	return p
}

// TableIRow is one row of the eviction evaluation.
type TableIRow struct {
	Browser     string `json:"browser"`
	Version     string `json:"version"`
	Eviction    bool   `json:"eviction"`
	InterDomain bool   `json:"inter_domain"`
	SizeNote    string `json:"size_note"`
	Remark      string `json:"remark"`
	OOMKilled   bool   `json:"oom_killed"`
}

// TableIData is the Table I dataset.
type TableIData []TableIRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d TableIData) Table() (header []string, rows [][]string) {
	header = []string{"browser", "version", "eviction", "inter_domain", "size_note", "remark", "oom_killed"}
	for _, r := range d {
		rows = append(rows, []string{r.Browser, r.Version, fbool(r.Eviction),
			fbool(r.InterDomain), r.SizeNote, r.Remark, fbool(r.OOMKilled)})
	}
	return header, rows
}

// TableI reproduces the cache-eviction evaluation: for every browser
// profile, prime the cache with objects of two victim domains, run the
// Fig. 1 eviction flood through the full network path, and observe
// whether the victims' objects were supplanted (and whether the browser
// survived). Each profile is one independent scenario job.
func TableI(env artifact.Env) (*artifact.Result, error) {
	rows, err := runner.Map(env.Runner, browser.TableIProfiles(), func(_ int, p browser.Profile) (TableIRow, error) {
		return tableIRow(p)
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-17s %-3s %-4s %-9s %s\n", "Browser", "Version", "Ev.", "I.D.", "Size", "Remarks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-17s %-3s %-4s %-9s %s\n",
			r.Browser, r.Version, mark(r.Eviction), mark(r.InterDomain), r.SizeNote, r.Remark)
	}
	return &artifact.Result{Text: b.String(), Dataset: TableIData(rows)}, nil
}

// tableIRow runs the eviction evaluation for one browser profile in a
// fresh, self-contained scenario.
func tableIRow(p browser.Profile) (TableIRow, error) {
	scaled := scaleProfile(p)
	s, err := core.NewScenario(core.Config{ProfileOverride: &scaled, Seed: 31})
	if err != nil {
		return TableIRow{}, fmt.Errorf("table I %s: %w", p.UserAgent(), err)
	}
	// Two victim domains to separate "evicts at all" from
	// "inter-domain eviction".
	for _, d := range []string{"popular.com", "other.com"} {
		s.AddPage(d, "/", fmt.Sprintf(`<html><body><script src="/app.js"></script></body></html>`), nil)
		s.AddPage(d, "/app.js", "function "+strings.ReplaceAll(d, ".", "_")+"(){}",
			map[string]string{"Cache-Control": "max-age=86400", "Content-Type": "application/javascript"})
	}
	s.AddPage("any.com", "/", `<html><body>benign</body></html>`, map[string]string{"Cache-Control": "no-store"})

	if _, err := s.Visit("popular.com", "/"); err != nil {
		return TableIRow{}, fmt.Errorf("table I prime: %w", err)
	}
	if _, err := s.Visit("other.com", "/"); err != nil {
		return TableIRow{}, fmt.Errorf("table I prime: %w", err)
	}

	// Flood 1.5× the cache budget in junk.
	junkSize := 4096
	junkCount := int(scaled.CacheSize)*3/2/junkSize + 1
	s.Master.EnableEviction(core.JunkHost, junkCount, junkSize, "any.com")
	_, verr := s.Visit("any.com", "/")

	evicted := !s.Victim.Cache().Contains("popular.com", "popular.com/app.js")
	interDomain := evicted && !s.Victim.Cache().Contains("other.com", "other.com/app.js")
	oom := s.Victim.OOMKilled() || verr != nil
	if oom {
		// The browser died instead of evicting: IE's failure mode.
		evicted = false
		interDomain = false
	}
	return TableIRow{
		Browser: p.Name + map[bool]string{true: "*", false: ""}[p.Incognito], Version: p.Version,
		Eviction: evicted, InterDomain: interDomain,
		SizeNote: p.SizeNote, Remark: p.Remark, OOMKilled: oom,
	}, nil
}

// TableIICell is one OS×browser injection outcome.
type TableIICell struct {
	OS       browser.OS `json:"os"`
	Browser  string     `json:"browser"`
	Exists   bool       `json:"exists"` // n/a when false
	Injected bool       `json:"injected"`
}

// TableIIData is the Table II dataset.
type TableIIData []TableIICell

// Table flattens the dataset for the CSV and Markdown renderers.
func (d TableIIData) Table() (header []string, rows [][]string) {
	header = []string{"os", "browser", "exists", "injected"}
	for _, c := range d {
		rows = append(rows, []string{string(c.OS), c.Browser, fbool(c.Exists), fbool(c.Injected)})
	}
	return header, rows
}

// TableII reproduces the TCP-injection evaluation across every existing
// OS × browser pair: set up the WiFi victim, arm the infection module,
// visit the target site and check whether the parasite landed in cache.
// Every OS × browser pair is one independent scenario job.
func TableII(env artifact.Env) (*artifact.Result, error) {
	type pair struct {
		os browser.OS
		p  browser.Profile
	}
	var pairs []pair
	for _, os := range browser.AllOSes() {
		for _, p := range browser.TableIIBrowsers() {
			pairs = append(pairs, pair{os: os, p: p})
		}
	}
	cells, err := runner.Map(env.Runner, pairs, func(_ int, pr pair) (TableIICell, error) {
		cell := TableIICell{OS: pr.os, Browser: pr.p.Name, Exists: pr.p.RunsOn(pr.os)}
		if cell.Exists {
			ok, err := injectionSucceeds(pr.p, pr.os)
			if err != nil {
				return cell, fmt.Errorf("table II %s/%s: %w", pr.p.Name, pr.os, err)
			}
			cell.Injected = ok
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "OS")
	for _, p := range browser.TableIIBrowsers() {
		fmt.Fprintf(&b, " %-8s", p.Name)
	}
	b.WriteString("\n")
	i := 0
	for _, os := range browser.AllOSes() {
		fmt.Fprintf(&b, "%-8s", os)
		for range browser.TableIIBrowsers() {
			c := cells[i]
			i++
			switch {
			case !c.Exists:
				fmt.Fprintf(&b, " %-8s", "n/a")
			default:
				fmt.Fprintf(&b, " %-8s", mark(c.Injected))
			}
		}
		b.WriteString("\n")
	}
	return &artifact.Result{Text: b.String(), Dataset: TableIIData(cells)}, nil
}

func injectionSucceeds(p browser.Profile, os browser.OS) (bool, error) {
	s, err := core.NewScenario(core.Config{ProfileOverride: &p, OS: os, Seed: 17})
	if err != nil {
		return false, err
	}
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`, nil)
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"})
	cfg := parasite.NewConfig("t2", "bot-t2", core.MasterHost)
	cfg.Propagate = false
	cfg.Anchor = false
	s.Registry.Add(cfg)
	s.Master.AddTarget(attacker.Target{
		Name: "somesite.com/my.js", Kind: attacker.KindJS,
		ParasitePayload: "t2", Original: []byte("function original(){}"),
	})
	page, err := s.Visit("somesite.com", "/")
	if err != nil {
		return false, err
	}
	for _, sc := range page.Scripts {
		if script.Infected(sc.Content) {
			return true, nil
		}
	}
	return false, nil
}

// TableIIIRow is one refresh-method evaluation row.
type TableIIIRow struct {
	Browser           string `json:"browser"`
	SupportsCacheAPI  bool   `json:"supports_cache_api"`
	CtrlF5Removes     bool   `json:"ctrl_f5_removes"`
	ClearCacheRemoves bool   `json:"clear_cache_removes"`
	CookiesRemoves    bool   `json:"cookies_removes"`
}

// TableIIIData is the Table III dataset.
type TableIIIData []TableIIIRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d TableIIIData) Table() (header []string, rows [][]string) {
	header = []string{"browser", "supports_cache_api", "ctrl_f5_removes", "clear_cache_removes", "cookies_removes"}
	for _, r := range d {
		rows = append(rows, []string{r.Browser, fbool(r.SupportsCacheAPI),
			fbool(r.CtrlF5Removes), fbool(r.ClearCacheRemoves), fbool(r.CookiesRemoves)})
	}
	return header, rows
}

// TableIII reproduces the refresh-method evaluation: a parasite anchored
// in the Cache API must survive Ctrl+F5 and cache clearing, and fall only
// to cookie (site-data) clearing. Every (browser, method) combination is
// one independent scenario job; rows are folded back in profile order.
func TableIII(env artifact.Env) (*artifact.Result, error) {
	var profiles []browser.Profile
	for _, p := range browser.TableIProfiles() {
		if p.Incognito {
			continue // Table III lists the five base browsers
		}
		profiles = append(profiles, p)
	}
	methods := []string{"ctrlf5", "clearcache", "clearcookies"}
	type job struct {
		p      browser.Profile
		method string
	}
	type verdict struct {
		browser string
		method  string
		removed bool
	}
	var jobs []job
	for _, p := range profiles {
		if !p.SupportsCacheAPI {
			continue
		}
		for _, m := range methods {
			jobs = append(jobs, job{p: p, method: m})
		}
	}
	verdicts, err := runner.Map(env.Runner, jobs, func(_ int, j job) (verdict, error) {
		ok, err := refreshRemovesParasite(j.p, j.method)
		if err != nil {
			return verdict{}, fmt.Errorf("table III %s %s: %w", j.p.Name, j.method, err)
		}
		return verdict{browser: j.p.Name, method: j.method, removed: ok}, nil
	})
	if err != nil {
		return nil, err
	}

	byBrowser := make(map[string]int)
	rows := make([]TableIIIRow, 0, len(profiles))
	for i, p := range profiles {
		rows = append(rows, TableIIIRow{Browser: p.Name, SupportsCacheAPI: p.SupportsCacheAPI})
		byBrowser[p.Name] = i
	}
	for _, v := range verdicts {
		row := &rows[byBrowser[v.browser]]
		switch v.method {
		case "ctrlf5":
			row.CtrlF5Removes = v.removed
		case "clearcache":
			row.ClearCacheRemoves = v.removed
		case "clearcookies":
			row.CookiesRemoves = v.removed
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-8s %-12s %-13s\n", "Browser", "Ctrl+F5", "clear cache", "clear cookies")
	for _, r := range rows {
		if !r.SupportsCacheAPI {
			fmt.Fprintf(&b, "%-9s %-8s %-12s %-13s\n", r.Browser, "n/a", "n/a", "n/a")
			continue
		}
		fmt.Fprintf(&b, "%-9s %-8s %-12s %-13s\n", r.Browser,
			mark(r.CtrlF5Removes), mark(r.ClearCacheRemoves), mark(r.CookiesRemoves))
	}
	return &artifact.Result{Text: b.String(), Dataset: TableIIIData(rows)}, nil
}

func refreshRemovesParasite(p browser.Profile, method string) (bool, error) {
	s, err := core.NewScenario(core.Config{ProfileOverride: &p, Seed: 23})
	if err != nil {
		return false, err
	}
	s.AddPage("top1.com", "/", `<html><body><script src="/persistent.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("top1.com", "/persistent.js", "function lib(){}",
		map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"})
	cfg := parasite.NewConfig("t3", "bot-t3", core.MasterHost)
	cfg.Propagate = false
	s.Registry.Add(cfg)
	s.Master.AddTarget(attacker.Target{
		Name: "top1.com/persistent.js", Kind: attacker.KindJS,
		ParasitePayload: "t3", Original: []byte("function lib(){}"),
	})
	if _, err := s.Visit("top1.com", "/"); err != nil {
		return false, err
	}
	if s.Victim.CacheAPI().Len() == 0 {
		return false, fmt.Errorf("parasite failed to anchor in the Cache API")
	}
	s.LeaveAttackerNetwork()

	switch method {
	case "ctrlf5":
		if _, err := s.VisitWith(s.Victim, "top1.com", "/", browser.VisitOpts{HardReload: true}); err != nil {
			return false, err
		}
	case "clearcache":
		s.Victim.ClearCache()
	case "clearcookies":
		s.Victim.ClearCookies()
	}
	// Table III asks whether the method removed the object stored with
	// the Cache API — the parasite's persistence anchor.
	if s.Victim.CacheAPI().Len() > 0 {
		return false, nil // anchor survived: the method did NOT remove it
	}
	// The anchor is gone. Confirm end-to-end removal: with the HTTP cache
	// also cleared (the paper: "cleaning up the cache does not suffice
	// ... the cookies must also be deleted"), the next visit must load
	// the genuine script from the network.
	s.Victim.ClearCache()
	page, err := s.Visit("top1.com", "/")
	if err != nil {
		return false, err
	}
	for _, sc := range page.Scripts {
		if script.Infected(sc.Content) {
			return false, nil
		}
	}
	return true, nil
}

// infectedJS builds a canonical infected response body for shared-cache
// experiments.
func infectedJS() *httpsim.Response {
	body := script.Embed([]byte("function lib(){}"), "parasite", "px")
	resp := httpsim.NewResponse(200, body)
	resp.Header.Set("Cache-Control", httpcache.MaxFreshness)
	return resp
}
