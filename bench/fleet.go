package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"masterparasite/internal/core"
	"masterparasite/internal/runner"
)

// fleetSeeds is how many fleet seeds a run cycles through; each recurs,
// so every run also checks that a repeated seed reproduces its result.
const fleetSeeds = 4

func fleetLayers() []metricDef {
	return []metricDef{
		{"core.fleet_build_ms", "ms"},
		{"core.fleet_build.allocs", "count"},
		{"netsim.fabric_run_ms", "ms"},
		{"netsim.fabric_run.allocs", "count"},
		{"netsim.fabric.events", "count"},
		{"netsim.fabric.windows", "count"},
		{"netsim.fabric.boundary", "count"},
		{"netsim.fabric.cpath_events", "count"},
		{"netsim.fabric.slack", "ratio"},
		{"netsim.fabric.events_per_s", "1/s"},
		{"core.fleet.infected", "count"},
		{"core.fleet.commanded", "count"},
		{"runner.parallel_efficiency", "ratio"},
	}
}

// fleet builds and drains a botnet fleet on the sharded fabric per op.
type fleet struct {
	lans, bots int
	seeds      [fleetSeeds]int64
	digests    map[int64][sha256.Size]byte // seed → first result's digest

	// Traced-phase samples, one per run; fleet has one client.
	events, windows, boundary, cpath, infected, commanded []float64
	eventsPerS, efficiency                                []float64
}

func setupFleet(cfg config) (instance, error) {
	f := &fleet{lans: cfg.sizes.fleetLANs, bots: cfg.sizes.fleetBots, digests: make(map[int64][sha256.Size]byte)}
	for i := range f.seeds {
		f.seeds[i] = runner.Seed(cfg.seed, "fleet-"+strconv.Itoa(i))
	}
	for i := 0; i < cfg.sizes.fleetWarmup; i++ {
		if err := f.op(opCtx{index: i}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *fleet) op(c opCtx) error {
	seed := f.seeds[c.index%fleetSeeds]
	sp := c.span("core.fleet_build")
	fl, err := core.NewFleet(core.FleetConfig{LANs: f.lans, BotsPerLAN: f.bots, Seed: seed})
	sp.end()
	if err != nil {
		return err
	}
	var cpu0 time.Duration
	var t0 time.Time
	if c.tr != nil {
		cpu0, t0 = cpuTime(), time.Now()
	}
	sp = c.span("netsim.fabric_run")
	res, err := fl.Run(workers)
	sp.end()
	if err != nil {
		return err
	}
	if c.tr != nil {
		wall := time.Since(t0)
		st := fl.Fabric().Stats()
		f.events = append(f.events, float64(st.Events))
		f.windows = append(f.windows, float64(st.Windows))
		f.boundary = append(f.boundary, float64(st.Boundary))
		f.cpath = append(f.cpath, float64(st.CriticalPath))
		f.infected = append(f.infected, float64(res.Infected))
		f.commanded = append(f.commanded, float64(res.Commanded))
		f.eventsPerS = append(f.eventsPerS, float64(st.Events)/wall.Seconds())
		f.efficiency = append(f.efficiency, efficiency(cpuTime()-cpu0, wall))
	}
	if res.Registered != res.Infected || res.Infected != res.Commanded || res.Infected == 0 {
		return fmt.Errorf("seed %d: registered %d, infected %d, commanded %d; want three equal non-zero counts",
			seed, res.Registered, res.Infected, res.Commanded)
	}
	d := fleetDigest(res)
	if prev, ok := f.digests[seed]; !ok {
		f.digests[seed] = d
	} else if prev != d {
		return fmt.Errorf("seed %d: fleet result differs from the first run with this seed", seed)
	}
	return nil
}

// fleetDigest hashes every field of a fleet result.
func fleetDigest(r core.FleetResult) [sha256.Size]byte {
	b := make([]byte, 0, 64+len(r.Infections)*24+len(r.Latencies)*8)
	for _, v := range []int{r.Bots, r.Infected, r.Registered, r.Commanded, r.CommandBytes, r.Events, r.LinkLost, r.LinkDup} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(r.LastCommandAt))
	for _, e := range r.Infections {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.At))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.LAN))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Bot))
	}
	for _, l := range r.Latencies {
		b = binary.LittleEndian.AppendUint64(b, uint64(l))
	}
	return sha256.Sum256(b)
}

func (f *fleet) layers(tr *tracer) map[string]metric {
	st := tr.summary()
	n := len(f.events)
	var events, cpath float64
	for i := range f.events {
		events += f.events[i]
		cpath += f.cpath[i]
	}
	return map[string]metric{
		"core.fleet_build_ms":        spanMs(st, "core.fleet_build"),
		"core.fleet_build.allocs":    spanAllocs(st, "core.fleet_build"),
		"netsim.fabric_run_ms":       spanMs(st, "netsim.fabric_run"),
		"netsim.fabric_run.allocs":   spanAllocs(st, "netsim.fabric_run"),
		"netsim.fabric.events":       {mean(f.events), "count", n},
		"netsim.fabric.windows":      {mean(f.windows), "count", n},
		"netsim.fabric.boundary":     {mean(f.boundary), "count", n},
		"netsim.fabric.cpath_events": {mean(f.cpath), "count", n},
		"netsim.fabric.slack":        {events / max(cpath, 1), "ratio", n},
		"netsim.fabric.events_per_s": {median(f.eventsPerS), "1/s", n},
		"core.fleet.infected":        {mean(f.infected), "count", n},
		"core.fleet.commanded":       {mean(f.commanded), "count", n},
		"runner.parallel_efficiency": {median(f.efficiency), "ratio", n},
	}
}

func (f *fleet) close() error { return nil }
