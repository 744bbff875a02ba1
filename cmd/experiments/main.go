// Command experiments regenerates the paper's tables and figures
// through the internal/artifact registry.
//
// Usage:
//
//	experiments -list
//	experiments -run all
//	experiments -run table1,table5,fig3 -sites 15000 -days 100
//	experiments -run all -parallel 8 -format json -out dist/
//	experiments -run fleet/infection-curve,fleet/cnc-fanout -lans 64 -bots 1563 -parallel 8
//	experiments -run all -manifest manifest.json
//	experiments -record killchain.replay -seed 97
//	experiments -replay killchain.replay -seed 97 -perturb 15ms
//	experiments -record lossy.replay -seed 97 -conditions coffee-shop-wifi
//	experiments replay fingerprint killchain.replay
//	experiments replay diff a.replay b.replay
//	experiments replay drive killchain.replay -time-div 8
//	experiments -run fleet/cnc-fanout -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The command itself knows no experiment: internal/experiments
// self-registers one artifact.Spec per table and figure, and this
// frontend is generic flag parsing plus registry lookup. -list prints
// the registry; -run selects artifacts by ID (validated up front —
// unknown, duplicate, or empty IDs abort before anything runs);
// -format picks a renderer (text, json, csv, md); parameter flags
// (-sites, -days, -seed, -payload) are generated from the specs'
// declared params.
//
// -parallel N is one knob with two bindings: scenario-fleet artifacts
// run N independent kill-chain jobs at once, and the fleet/* artifacts
// hand N to the sharded netsim fabric as its shard worker count (see
// docs/SCALING.md). Either way N buys wall-clock time only — it never
// changes a rendered byte.
//
// Every run builds a manifest — artifact IDs, resolved params, base
// seeds, worker count, and the SHA-256 fingerprint of each rendered
// artifact. -out DIR writes one file per artifact plus manifest.json
// into DIR (slash-scoped IDs like fleet/infection-curve nest
// directories); -manifest PATH writes the manifest alone. Because
// deterministic artifacts are byte-identical at any -parallel N, two
// manifests from runs at different worker counts must carry identical
// fingerprints.
//
// -record captures the scripted kill-chain run as an append-only
// wire-event log plus its divergence fingerprint (FILE.fp); -replay
// re-executes the scenario live against such a log and fails at the
// exact divergent event (use -perturb to inject one deliberately;
// -conditions <profile> instead records/replays under a named link
// fault preset with retransmission enabled). The
// `replay` verb operates on logs offline: fingerprint, diff between two
// logs, and stub-driven replay with time compression and perturbations
// (see internal/replay and docs/ARCHITECTURE.md).
//
// -cpuprofile FILE writes a CPU profile of the whole run, and
// -memprofile FILE a heap profile taken after it; `go tool pprof` reads
// both. Neither changes a byte the run prints or writes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"masterparasite/internal/artifact"
	_ "masterparasite/internal/experiments" // self-registers the paper's artifacts
	"masterparasite/internal/netsim"
	"masterparasite/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	if len(args) > 0 && args[0] == "replay" {
		return runReplayVerb(args[1:], stdout)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list registered artifacts and exit")
	record := fs.String("record", "", "record a kill-chain run into this replay log (plus .fp fingerprint) and exit")
	replayLog := fs.String("replay", "", "re-run the kill chain live against this recorded log and exit")
	perturb := fs.Duration("perturb", 0, "server-delay override for -record/-replay (0 = scenario default)")
	conditions := fs.String("conditions", "", fmt.Sprintf("link fault profile for -record/-replay (presets: %s)", strings.Join(netsim.ProfileNames(), ", ")))
	runList := fs.String("run", "all", "comma-separated artifact ids, or 'all'")
	format := fs.String("format", "text", fmt.Sprintf("output format: %s", strings.Join(artifact.Formats(), ", ")))
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS, 1 = sequential): scenario fleets run this many kill-chain jobs at once, and the fleet/* artifacts use it as the sharded netsim's shard worker count; deterministic artifacts are byte-identical at any value")
	outDir := fs.String("out", "", "write one file per artifact plus manifest.json into this directory instead of stdout")
	manifestPath := fs.String("manifest", "", "also write the run manifest to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file after the run")

	// One flag per parameter declared by any registered spec.
	paramFlags := make(map[string]*int)
	for _, p := range artifact.ParamFlags() {
		paramFlags[p.Name] = fs.Int(p.Name, p.Default, p.Usage)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errors.Join(err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			retErr = errors.Join(retErr, f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() { retErr = errors.Join(retErr, writeHeapProfile(*memProfile)) }()
	}

	if *list {
		return printList(stdout)
	}
	// -conditions is validated before anything runs, whether or not a
	// record/replay was requested, so a typo'd profile name always aborts
	// with the preset list instead of silently running clean.
	var link *netsim.LinkProfile
	if *conditions != "" {
		lp, err := netsim.ProfileByName(*conditions)
		if err != nil {
			return err
		}
		if *record == "" && *replayLog == "" {
			return fmt.Errorf("-conditions %s is only meaningful with -record or -replay", *conditions)
		}
		link = &lp
	}
	if *record != "" || *replayLog != "" {
		seed := int64(*paramFlags["seed"])
		if *record != "" {
			if err := recordRun(*record, seed, *perturb, link, stdout); err != nil {
				return err
			}
		}
		if *replayLog != "" {
			return replayRun(*replayLog, seed, *perturb, link, stdout)
		}
		return nil
	}
	renderer, err := artifact.RendererFor(*format)
	if err != nil {
		return err
	}
	ids, err := artifact.ResolveIDs(*runList)
	if err != nil {
		return err
	}
	overrides := make(map[string]int, len(paramFlags))
	for name, v := range paramFlags {
		overrides[name] = *v
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	pool := runner.New(*parallel)
	manifest := artifact.NewManifest(renderer.Format(), pool.Workers())
	for _, id := range ids {
		spec, _ := artifact.Get(id) // ResolveIDs validated existence
		res, rendered, err := artifact.RunRendered(spec, pool, overrides, renderer)
		if err != nil {
			return err
		}
		if *outDir != "" {
			name := filepath.Join(*outDir, id+"."+renderer.Ext())
			// Slash-scoped IDs (fleet/infection-curve) nest a directory.
			if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(name, rendered, 0o644); err != nil {
				return err
			}
		} else if _, err := stdout.Write(rendered); err != nil {
			return err
		}
		manifest.Add(spec, res, rendered)
	}

	if *outDir != "" {
		if err := manifest.WriteFile(filepath.Join(*outDir, "manifest.json")); err != nil {
			return err
		}
	}
	if *manifestPath != "" {
		if err := manifest.WriteFile(*manifestPath); err != nil {
			return err
		}
	}
	return nil
}

// writeHeapProfile writes the heap profile to path, after a GC so its
// in-use figures are current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

// printList renders the registry: one line per artifact with its
// section, determinism, params, and title.
func printList(w io.Writer) error {
	fmt.Fprintf(w, "%-22s %-12s %-5s %-28s %s\n", "ID", "SECTION", "DET", "PARAMS", "TITLE")
	for _, s := range artifact.All() {
		var params []string
		for _, p := range s.Params {
			params = append(params, fmt.Sprintf("%s=%d", p.Name, p.Default))
		}
		det := "yes"
		if !s.Deterministic {
			det = "no"
		}
		if _, err := fmt.Fprintf(w, "%-22s %-12s %-5s %-28s %s\n",
			s.ID, s.Section, det, strings.Join(params, ","), s.Title); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n-parallel N sizes the worker pool twice over: scenario-fleet artifacts run\n")
	fmt.Fprintf(w, "N kill-chain jobs at once, and the fleet/* artifacts drain their sharded\n")
	fmt.Fprintf(w, "netsim on N shard workers. Deterministic artifacts (DET=yes) render\n")
	fmt.Fprintf(w, "byte-identically at every N; see docs/SCALING.md.\n")
	return nil
}
