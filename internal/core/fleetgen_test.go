package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/replay"
)

// runFleet builds and drains one fleet at the given worker count,
// optionally lossy and optionally with a replay recorder tapping every
// shard's wire, and returns the result plus per-shard fingerprints. It
// fails the test unless every shard's frame pool balances after the
// run: a reference count set wrong on any send path leaks or
// double-frees a frame there.
func runFleet(t *testing.T, workers int, lossy, taps bool) (FleetResult, map[string]string) {
	t.Helper()
	cfg := FleetConfig{LANs: 6, BotsPerLAN: 60, Seed: 42}
	if lossy {
		cfg.Link = &netsim.LinkProfile{
			Name: "fleet-lossy", Loss: 0.04, Duplicate: 0.02,
			Jitter: 400 * time.Microsecond, Seed: 9001,
		}
	}
	fleet, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[string]*replay.Recorder)
	if taps {
		for _, sh := range fleetShards(fleet) {
			rec := replay.NewRecorder(nil)
			replay.NewTap(rec).Attach(sh.Network())
			recs[sh.Name()] = rec
		}
	}
	res, err := fleet.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range fleetShards(fleet) {
		if acq, rel := sh.Network().FrameStats(); acq == 0 || acq != rel {
			t.Errorf("shard %s: frame pool unbalanced after Run: acquired=%d released=%d", sh.Name(), acq, rel)
		}
	}
	prints := make(map[string]string, len(recs))
	for name, rec := range recs {
		prints[name] = rec.Fingerprint()
	}
	return res, prints
}

// fleetShards lists a fleet's shards, the backbone first.
func fleetShards(f *Fleet) []*netsim.Shard {
	shards := []*netsim.Shard{f.Backbone()}
	for i := 0; i < f.LANs(); i++ {
		shards = append(shards, f.LANShard(i))
	}
	return shards
}

// fleetDigest folds a fleet result and its per-shard replay
// fingerprints, in shard-name order, into one value.
func fleetDigest(res FleetResult, prints map[string]string) string {
	names := make([]string, 0, len(prints))
	for name := range prints {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s\n", name, prints[name])
	}
	fmt.Fprintf(h, "%+v\n", res)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFleetDeterministicAcrossWorkers: one fleet topology drained at 1,
// 4, and 8 shard workers produces the identical infection log, latency
// vector, counters, and — with a replay recorder attached to every
// shard — identical per-shard replay fingerprints, on a clean wire and
// under a lossy, duplicating LinkProfile alike. The sequential run's
// digest over all of it is pinned, so the fleet's wire bytes (REG,
// INF and command frames, boundary crossings) cannot change even
// uniformly across worker counts. A run with no recorder, where the
// uplinks share the delivered frames instead of copying them, gives
// the same result, and every run leaves each shard's frame pool
// balanced (runFleet).
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	pinned := map[string]string{"clean": "f98847b4be04e640", "lossy": "89ab6f6fa92b395a"}
	for _, lossy := range []bool{false, true} {
		name := "clean"
		if lossy {
			name = "lossy"
		}
		t.Run(name, func(t *testing.T) {
			ref, refPrints := runFleet(t, 1, lossy, true)
			if ref.Infected == 0 || ref.Commanded == 0 {
				t.Fatalf("reference run did nothing: %+v", ref)
			}
			if d := fleetDigest(ref, refPrints); d != pinned[name] {
				t.Errorf("digest %s, pinned %s", d, pinned[name])
			}
			if bare, _ := runFleet(t, 1, lossy, false); !reflect.DeepEqual(bare, ref) {
				t.Errorf("untapped run diverged:\ntapped:   %+v\nuntapped: %+v", ref, bare)
			}
			for _, workers := range []int{4, 8} {
				got, prints := runFleet(t, workers, lossy, true)
				if got.Events != ref.Events || got.Infected != ref.Infected ||
					got.Commanded != ref.Commanded || got.CommandBytes != ref.CommandBytes ||
					got.LastCommandAt != ref.LastCommandAt ||
					got.LinkLost != ref.LinkLost || got.LinkDup != ref.LinkDup {
					t.Errorf("workers=%d: result diverged:\nseq: %+v\npar: %+v", workers, ref, got)
				}
				for i := range ref.Infections {
					if got.Infections[i] != ref.Infections[i] {
						t.Fatalf("workers=%d: infection %d = %+v, sequential %+v",
							workers, i, got.Infections[i], ref.Infections[i])
					}
				}
				for i := range ref.Latencies {
					if got.Latencies[i] != ref.Latencies[i] {
						t.Fatalf("workers=%d: latency %d differs", workers, i)
					}
				}
				for shard, want := range refPrints {
					if prints[shard] != want {
						t.Errorf("workers=%d: shard %s replay fingerprint %.12s, sequential %.12s",
							workers, shard, prints[shard], want)
					}
				}
			}
		})
	}
}

// TestFleetKillChainCompletes pins the fleet protocol end to end on a
// clean wire: every infected bot registers exactly once, the master
// answers every registration, and every commanded bot's latency is at
// least two uplink crossings (REG out, command back).
func TestFleetKillChainCompletes(t *testing.T) {
	res, _ := runFleet(t, 4, false, false)
	if res.Infected != res.Registered || res.Infected != res.Commanded {
		t.Fatalf("protocol leak: infected=%d registered=%d commanded=%d",
			res.Infected, res.Registered, res.Commanded)
	}
	if res.Infected < res.Bots/2 {
		t.Fatalf("gossip died out: %d/%d infected", res.Infected, res.Bots)
	}
	minRTT := 2 * 5 * time.Millisecond // two lookahead crossings
	for i, lat := range res.Latencies {
		if lat != 0 && lat < minRTT {
			t.Fatalf("bot %d commanded after %v — faster than two uplink crossings (%v)", i, lat, minRTT)
		}
	}
	if p50, _, _, max := res.LatencyPercentiles(); p50 == 0 || max < p50 {
		t.Fatalf("percentiles degenerate: p50=%v max=%v", p50, max)
	}
	if res.Goodput() <= 0 {
		t.Fatalf("goodput = %f with %d command bytes", res.Goodput(), res.CommandBytes)
	}
}

// TestFleetConfigValidation: impossible topologies fail up front.
func TestFleetConfigValidation(t *testing.T) {
	for _, cfg := range []FleetConfig{{LANs: 0, BotsPerLAN: 5}, {LANs: 5, BotsPerLAN: 0}} {
		if _, err := NewFleet(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestFleetStatsExposeParallelStructure: the fabric's RunStats must
// show the sharded run's parallel slack — a critical path well under
// the total at 8 workers — and be identical across worker counts
// except for the worker-share floor.
func TestFleetStatsExposeParallelStructure(t *testing.T) {
	fleet, err := NewFleet(FleetConfig{LANs: 8, BotsPerLAN: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(8); err != nil {
		t.Fatal(err)
	}
	st := fleet.Fabric().Stats()
	if st.Windows == 0 || st.Events == 0 || st.Boundary == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.CriticalPath >= st.Events {
		t.Fatalf("critical path %d not below total %d at 8 workers — no parallel slack", st.CriticalPath, st.Events)
	}
}

// TestNewFleetAllocs is the fleet build's allocation ratchet, on the
// fleet of TestFleetRunAllocs: NewFleet must stay within
// newFleetAllocBudget allocations, the measured count plus 3%. The
// build allocates per LAN, not per bot: one address string, one
// handler, and interface chunks that double as the segment grows.
// Skipped in -short mode, where the race detector perturbs counts;
// `make allocs` runs it.
func TestNewFleetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	const newFleetAllocBudget = 1697 // measured 1,648 on Go 1.24.0, +3%
	cfg := FleetConfig{LANs: 32, BotsPerLAN: 400, Seed: 10}
	var err error
	allocs := testing.AllocsPerRun(1, func() { _, err = NewFleet(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NewFleet: %.0f allocations, %.3f per bot", allocs, allocs/float64(cfg.LANs*cfg.BotsPerLAN))
	if allocs > newFleetAllocBudget {
		t.Errorf("NewFleet made %.0f allocations, budget %d", allocs, newFleetAllocBudget)
	}
}

// TestFleetRunAllocs is the fleet's allocation ratchet, on the 32×400,
// seed-10 fleet of the root BenchmarkFleet_ShardedScaling: draining it
// on one worker must stay within fleetRunAllocBudget allocations, the
// measured count plus 3%, the BENCHMARK.json bound. A change that lowers
// the count lowers the budget with it. The same run pins the fleet's
// event count, the frames its shards acquire and its 8-worker critical
// path exactly: all three are pure functions of the topology. One frame
// per uplink hearing: a local send shares its frame with the uplink,
// and an arrival is sent on in the frame the barrier filled. Skipped in
// -short mode, where the race detector perturbs counts; `make allocs`
// runs it.
func TestFleetRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	const (
		fleetRunAllocBudget = 9706 // measured 9,424 on Go 1.24.0, +3%
		wantEvents          = 204712
		wantFrames          = 84280
		wantCriticalPath8   = 48300
	)
	cfg := FleetConfig{LANs: 32, BotsPerLAN: 400, Seed: 10}
	fleet, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := fleet.Run(1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("Run(1): %d allocations, %.3f per event", allocs, float64(allocs)/float64(res.Events))
	if allocs > fleetRunAllocBudget {
		t.Errorf("Run(1) made %d allocations, budget %d", allocs, fleetRunAllocBudget)
	}
	if res.Events != wantEvents {
		t.Errorf("events = %d, pinned %d", res.Events, wantEvents)
	}
	frames := 0
	for _, sh := range fleetShards(fleet) {
		acq, _ := sh.Network().FrameStats()
		frames += acq
	}
	if frames != wantFrames {
		t.Errorf("frames acquired = %d, pinned %d", frames, wantFrames)
	}

	fleet, err = NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(8); err != nil {
		t.Fatal(err)
	}
	if cp := fleet.Fabric().Stats().CriticalPath; cp != wantCriticalPath8 {
		t.Errorf("8-worker critical path = %d, pinned %d", cp, wantCriticalPath8)
	}
}
