// Command crawl runs the persistency crawler and the security-header
// survey over the synthetic Alexa population at full measurement scale.
// Both measurements are the registry artifacts behind Fig. 3 and
// Fig. 5 — crawl is a thin frontend over the same specs cmd/experiments
// drives, defaulting to the paper's population size.
//
//	crawl -sites 15000 -days 100
//	crawl -survey-only -format json
//	crawl -targets
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"masterparasite/internal/artifact"
	"masterparasite/internal/crawler"
	_ "masterparasite/internal/experiments" // self-registers the fig3/fig5 artifacts
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	sites := fs.Int("sites", webcorpus.DefaultSites, "population size")
	days := fs.Int("days", webcorpus.StudyDays, "study duration in days")
	seed := fs.Int("seed", 1, "corpus seed")
	format := fs.String("format", "text", fmt.Sprintf("output format: %s", strings.Join(artifact.Formats(), ", ")))
	surveyOnly := fs.Bool("survey-only", false, "only run the header survey")
	targets := fs.Bool("targets", false, "list per-site infection targets (name-stable scripts)")
	parallel := fs.Int("parallel", 0, "crawl worker-pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	renderer, err := artifact.RendererFor(*format)
	if err != nil {
		return err
	}
	pool := runner.New(*parallel)
	overrides := map[string]int{"sites": *sites, "days": *days, "seed": *seed}

	ids := []string{"fig5"}
	if !*surveyOnly {
		ids = append(ids, "fig3")
	}
	for _, id := range ids {
		spec, ok := artifact.Get(id)
		if !ok {
			return fmt.Errorf("artifact %s not registered", id)
		}
		_, rendered, err := artifact.RunRendered(spec, pool, overrides, renderer)
		if err != nil {
			return err
		}
		if _, err := stdout.Write(rendered); err != nil {
			return err
		}
	}
	if *surveyOnly {
		// The survey is everything that was asked for — skip the crawl
		// AND the targets listing, exactly like the pre-registry CLI.
		return nil
	}

	if *targets {
		corpus := webcorpus.Generate(webcorpus.Params{Sites: *sites, Seed: int64(*seed)})
		sel := crawler.SelectTargets(pool, corpus, *days)
		fmt.Fprintf(stdout, "\nsites with whole-window name-stable scripts: %d\n", len(sel))
		hosts := make([]string, 0, len(sel))
		for host := range sel {
			hosts = append(hosts, host)
		}
		sort.Strings(hosts)
		for shown, host := range hosts {
			if shown >= 10 {
				fmt.Fprintf(stdout, "  ... (%d more)\n", len(sel)-shown)
				break
			}
			fmt.Fprintf(stdout, "  %s: %v\n", host, sel[host])
		}
	}
	return nil
}
