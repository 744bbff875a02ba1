package experiments

import (
	"fmt"
	"strings"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

// CountermeasureRow is one §VIII defence evaluated against the kill chain.
type CountermeasureRow struct {
	Defence string `json:"defence"`
	// Infected: did the initial injection deliver the parasite?
	Infected bool `json:"infected"`
	// Persisted: did the parasite survive leaving the attacker network?
	Persisted bool `json:"persisted"`
	// Propagated: how many origins ended up infected (1 = contained).
	Propagated int `json:"propagated"`
	// CNCWorked: did a queued command execute and exfiltrate?
	CNCWorked bool   `json:"cnc_worked"`
	Note      string `json:"note"`
}

// CountermeasuresData is the §VIII dataset.
type CountermeasuresData []CountermeasureRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d CountermeasuresData) Table() (header []string, rows [][]string) {
	header = []string{"defence", "infected", "persisted", "propagated", "cnc_worked", "note"}
	for _, r := range d {
		rows = append(rows, []string{r.Defence, fbool(r.Infected), fbool(r.Persisted),
			fint(r.Propagated), fbool(r.CNCWorked), r.Note})
	}
	return header, rows
}

// Countermeasures reproduces §VIII: each recommended defence (plus the
// TCP-reassembly ablation) runs against the full kill chain, and the row
// records which stages it stops. Every defence variant is one
// independent scenario job.
func Countermeasures(env artifact.Env) (*artifact.Result, error) {
	type variant struct {
		name      string
		cfg       core.Config
		prep      func(*core.Scenario)
		strictCSP bool // pages serve "default-src 'self'"
		note      string
	}
	variants := []variant{
		{name: "none (baseline)", cfg: core.Config{Seed: 61}},
		{
			name: "HTTPS on target", cfg: core.Config{Seed: 61},
			prep: func(s *core.Scenario) { s.SetTLS("somesite.com", true); s.SetTLS("top1.com", true) },
			note: "injection needs plaintext",
		},
		{
			name: "HTTPS + fraudulent cert",
			cfg:  core.Config{Seed: 61, FraudulentCertHosts: []string{"somesite.com", "top1.com"}},
			prep: func(s *core.Scenario) { s.SetTLS("somesite.com", true); s.SetTLS("top1.com", true) },
			note: "mis-issued certificate voids TLS (§V)",
		},
		{
			name: "cache partitioning",
			cfg:  core.Config{Seed: 61, Profile: partitionedChrome()},
			note: "blocks shared-entry reuse only; iframe propagation unaffected (paper: partitioning is inefficient)",
		},
		{
			name: "random query string on scripts", cfg: core.Config{Seed: 61},
			prep: func(s *core.Scenario) { s.Victim.DefenseRandomQuery = true },
			note: "poisoned cache entries never re-hit",
		},
		{
			name: "strict CSP on pages", cfg: core.Config{Seed: 61},
			strictCSP: true,
			note:      "C&C and iframe propagation blocked while CSP delivered",
		},
		{
			name: "last-wins reassembly (ablation)",
			cfg:  core.Config{Seed: 61, ReassemblyPolicy: tcpsim.LastWins},
			note: "attack depends on race win, not overlap policy",
		},
	}

	rows, err := runner.Map(env.Runner, variants, func(_ int, v variant) (CountermeasureRow, error) {
		row, err := runCountermeasure(v.cfg, v.prep, v.strictCSP)
		if err != nil {
			return row, fmt.Errorf("countermeasure %q: %w", v.name, err)
		}
		row.Defence = v.name
		row.Note = v.note
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %-9s %-10s %-11s %-5s %s\n", "Defence", "Infected", "Persisted", "Propagated", "C&C", "Note")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %-9s %-10s %-11d %-5s %s\n",
			r.Defence, mark(r.Infected), mark(r.Persisted), r.Propagated, mark(r.CNCWorked), r.Note)
	}
	return &artifact.Result{Text: b.String(), Dataset: CountermeasuresData(rows)}, nil
}

func partitionedChrome() *browser.Profile {
	p, err := browser.ProfileByName("Chrome")
	if err != nil {
		return nil
	}
	p.PartitionedCache = true
	return &p
}

func runCountermeasure(cfg core.Config, prep func(*core.Scenario), strictCSP bool) (CountermeasureRow, error) {
	var row CountermeasureRow
	s, err := core.NewScenario(cfg)
	if err != nil {
		return row, err
	}
	if prep != nil {
		prep(s)
	}
	hdr := map[string]string{"Cache-Control": "no-store"}
	if strictCSP {
		hdr["Content-Security-Policy"] = "default-src 'self'"
	}
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`, hdr)
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"})
	s.AddPage("top1.com", "/", `<html><body><script src="/persistent.js"></script></body></html>`, hdr)
	s.AddPage("top1.com", "/persistent.js", "function lib(){}",
		map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"})

	pcfg := parasite.NewConfig("cm", "bot-cm", core.MasterHost)
	pcfg.PropagationTargets = []string{"top1.com"}
	pcfg.Modules["ping"] = func(env script.Env, _ string, exfil parasite.Exfil) error {
		exfil("ping", []byte("pong from "+env.PageHost()))
		return nil
	}
	s.Registry.Add(pcfg)
	for _, name := range []string{"somesite.com/my.js", "top1.com/persistent.js"} {
		s.Master.AddTarget(attacker.Target{Name: name, Kind: attacker.KindJS,
			ParasitePayload: "cm", Original: []byte("function original(){}")})
	}

	// Stage 1: infection attempt on the attacker's network.
	page, _ := s.Visit("somesite.com", "/")
	if page != nil {
		for _, sc := range page.Scripts {
			if script.Infected(sc.Content) {
				row.Infected = true
			}
		}
	}
	row.Propagated = len(s.Registry.InfectedOrigins("bot-cm"))

	// Stage 2: persistence after leaving, plus C&C.
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand("bot-cm", []byte("ping|"))
	page2, _ := s.Visit("somesite.com", "/")
	if page2 != nil {
		for _, sc := range page2.Scripts {
			if script.Infected(sc.Content) {
				row.Persisted = true
			}
		}
	}
	if _, ok := s.CNC.Upload("bot-cm", "ping"); ok {
		row.CNCWorked = true
	}
	return row, nil
}
