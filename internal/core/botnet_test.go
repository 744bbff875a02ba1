package core

import (
	"strings"
	"testing"

	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/parasite"
	"masterparasite/internal/script"
)

func TestBotnetMultipleVictims(t *testing.T) {
	// The paper's "parasites botnet": two victims on the same WiFi, the
	// master infects both, each reports under its own bot identity, and
	// the master commands them independently.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)

	// Two strains — one per victim identity. (A real deployment derives
	// the bot id victim-side; strains keep the simulation explicit.)
	for _, id := range []string{"v1", "v2"} {
		cfg := parasite.NewConfig(id, "bot-"+id, MasterHost)
		cfg.Propagate = false
		cfg.Modules["whoami"] = func(env script.Env, _ string, exfil parasite.Exfil) error {
			exfil("id", []byte(env.UserAgent()))
			return nil
		}
		s.Registry.Add(cfg)
	}
	// The master targets different objects for the two victims: victim 1
	// browses somesite.com, victim 2 browses top1.com.
	s.Master.AddTarget(attacker.Target{Name: "somesite.com/my.js", Kind: attacker.KindJS,
		ParasitePayload: "v1", Original: []byte("o")})
	s.Master.AddTarget(attacker.Target{Name: "top1.com/persistent.js", Kind: attacker.KindJS,
		ParasitePayload: "v2", Original: []byte("o")})

	victim2, err := s.AddVictim("victim-2", "Firefox", 99)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VisitWith(victim2, "top1.com", "/", browser.VisitOpts{}); err != nil {
		t.Fatal(err)
	}

	// Both infected; now command each bot separately, off-path.
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand("bot-v1", []byte("whoami|"))
	s.CNC.QueueCommand("bot-v2", []byte("whoami|"))
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VisitWith(victim2, "top1.com", "/", browser.VisitOpts{}); err != nil {
		t.Fatal(err)
	}

	loot1, ok1 := s.CNC.Upload("bot-v1", "id")
	loot2, ok2 := s.CNC.Upload("bot-v2", "id")
	if !ok1 || !ok2 {
		t.Fatalf("exfil: v1=%v v2=%v", ok1, ok2)
	}
	if !strings.Contains(string(loot1), "Chrome") {
		t.Fatalf("bot-v1 loot = %q", loot1)
	}
	if !strings.Contains(string(loot2), "Firefox") {
		t.Fatalf("bot-v2 loot = %q", loot2)
	}
	bots := s.CNC.Bots()
	if len(bots) != 2 {
		t.Fatalf("bots = %v", bots)
	}
}

func TestSharedFilePropagation(t *testing.T) {
	// §VI-B1 "Propagation on the same device via shared files": infecting
	// the analytics script once means the parasite executes on every site
	// that embeds it — with no further injection.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"site-a.com", "site-b.com", "site-c.com"} {
		s.AddPage(site, "/", `<html><body><script src="analytics.example/ga.js"></script></body></html>`,
			map[string]string{"Cache-Control": "no-store"})
	}
	s.AddPage("analytics.example", "/ga.js", "function ga(){}",
		map[string]string{"Cache-Control": "max-age=86400", "Content-Type": "application/javascript"})

	cfg := parasite.NewConfig("ga", "bot-ga", MasterHost)
	cfg.Propagate = false
	s.Registry.Add(cfg)
	s.Master.AddTarget(attacker.Target{Name: "analytics.example/ga.js", Kind: attacker.KindJS,
		ParasitePayload: "ga", Original: []byte("function ga(){}")})

	// One visit on the attacker's network infects the shared file.
	if _, err := s.Visit("site-a.com", "/"); err != nil {
		t.Fatal(err)
	}
	injections := s.Master.Stats().Injections
	if injections == 0 {
		t.Fatal("shared file not injected")
	}

	// Off-path, the other sites execute the same cached parasite.
	s.LeaveAttackerNetwork()
	for _, site := range []string{"site-b.com", "site-c.com"} {
		page, err := s.Visit(site, "/")
		if err != nil {
			t.Fatal(err)
		}
		infected := false
		for _, sc := range page.Scripts {
			if script.Infected(sc.Content) {
				infected = true
			}
		}
		if !infected {
			t.Fatalf("%s did not execute the shared-file parasite", site)
		}
	}
	if s.Master.Stats().Injections != injections {
		t.Fatal("additional injections occurred off-path")
	}
	origins := s.Registry.InfectedOrigins("bot-ga")
	if len(origins) != 3 {
		t.Fatalf("parasite ran on %v, want all three embedding sites", origins)
	}
}

func TestEvictionThenInfectionPipeline(t *testing.T) {
	// Fig. 1 feeding Fig. 2: the object is already cached (fresh for a
	// day), so the master first evicts it, and only then can the next
	// visit be infected.
	prof, err := scaledChrome()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScenario(Config{ProfileOverride: prof})
	if err != nil {
		t.Fatal(err)
	}
	s.AddPage("popular.com", "/", `<html><body><script src="/app.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("popular.com", "/app.js", "function app(){}",
		map[string]string{"Cache-Control": "max-age=86400"})
	s.AddPage("any.com", "/", `<html><body>benign</body></html>`,
		map[string]string{"Cache-Control": "no-store"})

	cfg := parasite.NewConfig("ev", "bot-ev", MasterHost)
	cfg.Propagate = false
	s.Registry.Add(cfg)

	// Phase 0: victim has the genuine object cached, long-lived.
	if _, err := s.Visit("popular.com", "/"); err != nil {
		t.Fatal(err)
	}
	// Arm infection; without eviction the next visit serves from cache.
	s.Master.AddTarget(attacker.Target{Name: "popular.com/app.js", Kind: attacker.KindJS,
		ParasitePayload: "ev", Original: []byte("function app(){}")})
	page, err := s.Visit("popular.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if script.Infected(page.Scripts[0].Content) {
		t.Fatal("infected without a network fetch — cache model broken")
	}

	// Phase 1: eviction flood sized to the (scaled) cache.
	junkCount := int(prof.CacheSize)/4096 + 8
	s.Master.EnableEviction(JunkHost, junkCount, 4096, "any.com")
	if _, err := s.Visit("any.com", "/"); err != nil {
		t.Fatal(err)
	}
	if s.Victim.Cache().Contains("popular.com", "popular.com/app.js") {
		t.Fatal("eviction flood did not supplant the victim object")
	}

	// Phase 2: the re-fetch is injectable.
	page2, err := s.Visit("popular.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if !script.Infected(page2.Scripts[0].Content) {
		t.Fatal("post-eviction visit not infected")
	}
}

func scaledChrome() (*browser.Profile, error) {
	p, err := browser.ProfileByName("Chrome")
	if err != nil {
		return nil, err
	}
	p.CacheSize = 128 * 1024
	return &p, nil
}
