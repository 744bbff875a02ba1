package core

import (
	"sort"
	"strings"
	"testing"

	"masterparasite/internal/attacker"
	"masterparasite/internal/crawler"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
	"masterparasite/internal/webcorpus"
)

func TestCrawlerSelectedTargetsAreInfectable(t *testing.T) {
	// The §VI-A pipeline end to end: the crawler identifies name-stable
	// scripts on the synthetic population; the master arms exactly those;
	// the victim then browses the live site (served from the same corpus)
	// and the selected object gets infected.
	corpus := webcorpus.Generate(webcorpus.Params{Sites: 40, Seed: 21})
	targets := crawler.SelectTargets(runner.New(1), corpus, 30)
	if len(targets) == 0 {
		t.Fatal("crawler selected no targets")
	}
	// Pick the first (alphabetical) host with a stable script.
	hosts := make([]string, 0, len(targets))
	for h := range targets {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	host := hosts[0]
	stable := targets[host]
	sort.Strings(stable)
	targetURL := stable[0]

	var site *webcorpus.Site
	for _, s := range corpus.Sites {
		if s.Host == host {
			site = s
		}
	}
	if site == nil {
		t.Fatal("selected host missing from corpus")
	}

	s, err := NewScenario(Config{Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	// Serve the corpus site live: the front page comes from RenderPage
	// (day 30 of the study), objects from a synthetic handler.
	const day = 30
	s.AddHandler(host, func(req *httpsim.Request) *httpsim.Response {
		if req.PathOnly() == "/" {
			return site.RenderPage(day)
		}
		url := host + req.PathOnly()
		for _, o := range site.ObjectsOn(day) {
			if o.Name == url {
				resp := httpsim.NewResponse(200, []byte("/* "+o.Hash+" */"))
				resp.Header.Set("Content-Type", "application/javascript")
				resp.Header.Set("Cache-Control", "max-age=86400")
				return resp
			}
		}
		return httpsim.NewResponse(404, nil)
	})

	cfg := parasite.NewConfig("sel", "bot-sel", MasterHost)
	cfg.Propagate = false
	s.Registry.Add(cfg)
	s.Master.AddTarget(attacker.Target{
		Name: targetURL, Kind: attacker.KindJS,
		ParasitePayload: "sel", Original: []byte("/* original */"),
	})

	page, err := s.Visit(host, "/")
	if err != nil {
		t.Fatal(err)
	}
	infected := false
	for _, sc := range page.Scripts {
		if script.Name(sc.URL) == targetURL && script.Infected(sc.Content) {
			infected = true
		}
	}
	if !infected {
		var loaded []string
		for _, sc := range page.Scripts {
			loaded = append(loaded, sc.URL)
		}
		t.Fatalf("selected target %s not infected; page loaded %v", targetURL, loaded)
	}
	// The infected copy is cached under the stable name, so it will be
	// invoked on every future visit for (at least) the crawled window.
	e, ok := s.Victim.Cache().Get(host, targetURL)
	if !ok || !script.Infected(e.Body) {
		t.Fatal("stable-name cache entry not poisoned")
	}
	if !strings.Contains(e.Header.Get("Cache-Control"), "max-age=31536000") {
		t.Fatal("poisoned entry lifetime not maximised")
	}
}
