// Package masterparasite's root benchmark harness: one benchmark per
// table and figure of the paper (regenerating the artifact end to end
// through the internal/artifact registry), the design-choice ablations
// (reassembly policy, shared-cache isolation), and micro-benchmarks of
// the hot codecs.
//
//	go test -bench=. -benchmem
package masterparasite

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/cnc"
	"masterparasite/internal/core"
	"masterparasite/internal/dom"
	_ "masterparasite/internal/experiments" // self-registers the paper's artifacts
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/proxycache"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
	"masterparasite/internal/webcorpus"
)

// benchPool is the scenario-fleet pool the per-artefact benchmarks run
// on: all available cores, matching cmd/experiments' default.
var benchPool = runner.New(0)

// benchSizes keeps the crawl-backed artifacts tractable per iteration.
var benchSizes = map[string]int{"sites": 400, "days": 20}

// runArtifact regenerates one registered artifact on the given pool.
func runArtifact(b *testing.B, pool *runner.Runner, id string, overrides map[string]int) {
	b.Helper()
	spec, ok := artifact.Get(id)
	if !ok {
		b.Fatalf("artifact %q not registered", id)
	}
	env, err := spec.NewEnv(pool, overrides)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := spec.Exec(env); err != nil {
		b.Fatal(err)
	}
}

// --- the sharded netsim fabric: shard workers 1 → 8 -------------------

// BenchmarkFleet_ShardedScaling drains one fixed 12 800-bot fleet
// topology (32 LAN shards × 400 victims) at 1, 2, 4, and 8 shard
// workers. Alongside wall-clock ns/op it reports the fabric's
// machine-independent work accounting: events/op (total simulated
// events — identical at every worker count, as determinism demands),
// boundary/op (frames crossing the uplink lookahead boundary), and
// cpath-events/op (the per-window critical path: the events the
// busiest shard must execute serially, floored by the worker share).
// cpath(1)/cpath(8) is the fabric's parallel slack — the speedup an
// ideally scheduled 8-core box extracts — and stays meaningful even
// when the benchmark host pins GOMAXPROCS to one core and flattens
// ns/op.
func BenchmarkFleet_ShardedScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var st netsim.RunStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fleet, err := core.NewFleet(core.FleetConfig{LANs: 32, BotsPerLAN: 400, Seed: 10})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := fleet.Run(workers); err != nil {
					b.Fatal(err)
				}
				st = fleet.Fabric().Stats()
			}
			b.ReportMetric(float64(st.Events), "events/op")
			b.ReportMetric(float64(st.CriticalPath), "cpath-events/op")
			b.ReportMetric(float64(st.Boundary), "boundary/op")
		})
	}
}

// --- one benchmark per table / figure ---------------------------------

func BenchmarkTableI_CacheEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "table1", nil)
	}
}

func BenchmarkTableII_TCPInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "table2", nil)
	}
}

func BenchmarkTableIII_Refresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "table3", nil)
	}
}

func BenchmarkTableIV_SharedCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "table4", nil)
	}
}

func BenchmarkTableV_Attacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "table5", nil)
	}
}

func BenchmarkFigure3_Persistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "fig3", benchSizes)
	}
}

func BenchmarkFigure5_CSPSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "fig5", map[string]int{"sites": 2000})
	}
}

func BenchmarkFigures124_MessageFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "flows", nil)
	}
}

func BenchmarkCountermeasures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runArtifact(b, benchPool, "countermeasures", nil)
	}
}

// --- §VI-C covert channel throughput (the 100 KB/s claim) -------------

// cncPayloadSize is the command volume each C&C benchmark op moves; the
// concurrent-vs-sequential pairs keep the concurrency win measurable
// through refactors.
const cncPayloadSize = 16 * 1024

func benchCNCDownstream(b *testing.B, concurrency int) {
	b.Helper()
	master := cnc.NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	payload := bytes.Repeat([]byte("X"), cncPayloadSize)
	ctx := context.Background()
	// MB/s counts the true payload volume decoded per op — the command
	// bytes the covert images carry, not the ~25x larger SVG wire cost.
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bot := &cnc.Bot{BaseURL: base, ID: fmt.Sprintf("b%d-%d", concurrency, i), Concurrency: concurrency}
		master.QueueCommand(bot.ID, payload)
		got, _, ok, err := bot.Poll(ctx)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			b.Fatalf("poll: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkCNC_Downstream(b *testing.B)           { benchCNCDownstream(b, 16) }
func BenchmarkCNC_DownstreamSequential(b *testing.B) { benchCNCDownstream(b, 1) }

func benchCNCUpstream(b *testing.B, concurrency int) {
	b.Helper()
	master := cnc.NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	payload := bytes.Repeat([]byte("X"), cncPayloadSize)
	ctx := context.Background()
	// MB/s counts the exfiltrated payload bytes per op, excluding the
	// base64 URL expansion.
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bot := &cnc.Bot{BaseURL: base, ID: fmt.Sprintf("up%d-%d", concurrency, i), Concurrency: concurrency}
		if err := bot.Upload(ctx, "s", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCNC_Upstream(b *testing.B)           { benchCNCUpstream(b, 16) }
func BenchmarkCNC_UpstreamSequential(b *testing.B) { benchCNCUpstream(b, 1) }

// --- design-choice ablations -------------------------------------------

// killChain runs one full infection and returns whether it succeeded.
func killChain(b *testing.B, cfg core.Config) bool {
	b.Helper()
	s, err := core.NewScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600"})
	pcfg := parasite.NewConfig("bb", "bot-bb", core.MasterHost)
	s.Registry.Add(pcfg)
	s.Master.AddTarget(attacker.Target{Name: "somesite.com/my.js", Kind: attacker.KindJS,
		ParasitePayload: "bb", Original: []byte("o")})
	page, err := s.Visit("somesite.com", "/")
	if err != nil || len(page.Scripts) == 0 {
		return false
	}
	return script.Infected(page.Scripts[0].Content)
}

func BenchmarkAblation_FirstWinsInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !killChain(b, core.Config{Seed: int64(i + 1)}) {
			b.Fatal("injection failed under first-wins")
		}
	}
}

func BenchmarkAblation_LastWinsInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !killChain(b, core.Config{Seed: int64(i + 1), ReassemblyPolicy: tcpsim.LastWins}) {
			b.Fatal("injection failed under last-wins")
		}
	}
}

func BenchmarkAblation_SharedCacheIsolationCost(b *testing.B) {
	infected := httpsim.NewResponse(200, script.Embed([]byte("x"), "parasite", "p"))
	infected.Header.Set("Cache-Control", httpcache.MaxFreshness)
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := proxycache.NewSharedCache("squid", 1<<20, false)
			proxycache.RunInfection(cache, infected, 32)
		}
	})
	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := proxycache.NewSharedCache("squid", 1<<20, true)
			proxycache.RunInfection(cache, infected, 32)
		}
	})
}

// --- micro-benchmarks on the hot codecs --------------------------------

func BenchmarkCodec_DimsEncodeDecode(b *testing.B) {
	msg := bytes.Repeat([]byte("m"), 1024)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		dims := cnc.EncodeDims(msg)
		if _, err := cnc.DecodeDims(dims); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodec_SVGRoundTrip(b *testing.B) {
	d := cnc.Dim{W: 513, H: 65535}
	for i := 0; i < b.N; i++ {
		if _, err := cnc.ParseSVG(cnc.RenderSVG(d)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodec_URLChunks(b *testing.B) {
	data := bytes.Repeat([]byte("d"), 8192)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		chunks := cnc.EncodeURLChunks(data, 1024)
		for _, c := range chunks {
			if _, err := cnc.DecodeURLChunk(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHTTPSim_MessageRoundTrip(b *testing.B) {
	resp := httpsim.NewResponse(200, bytes.Repeat([]byte("b"), 4096))
	resp.Header.Set("Cache-Control", "max-age=60")
	wire := resp.Marshal()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if _, _, err := httpsim.ParseResponse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPSim_SegmentMarshal(b *testing.B) {
	seg := tcpsim.Segment{SrcPort: 50000, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: tcpsim.FlagACK | tcpsim.FlagPSH, Payload: bytes.Repeat([]byte("p"), 1460)}
	b.SetBytes(int64(len(seg.Payload)))
	for i := 0; i < b.N; i++ {
		wire := seg.Marshal()
		if _, err := tcpsim.ParseSegment(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCache_PutGetEvict(b *testing.B) {
	body := bytes.Repeat([]byte("c"), 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := httpcache.NewStore(httpcache.Options{Capacity: 64 * 1024})
		for j := 0; j < 64; j++ {
			resp := httpsim.NewResponse(200, body)
			resp.Header.Set("Cache-Control", "max-age=60")
			url := fmt.Sprintf("d.com/o%d", j)
			store.Put("", httpcache.EntryFromResponse(0, url, resp, false))
			store.Get("", url)
		}
	}
}

func BenchmarkDOM_ParseHTML(b *testing.B) {
	site := webcorpus.Generate(webcorpus.Params{Sites: 1, Seed: 3}).Sites[0]
	page := site.RenderPage(0).Body
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		doc := dom.ParseHTML("x", page)
		if doc == nil {
			b.Fatal("nil doc")
		}
	}
}

func BenchmarkDOM_ScanTags(b *testing.B) {
	site := webcorpus.Generate(webcorpus.Params{Sites: 1, Seed: 3}).Sites[0]
	page := site.RenderPage(0).Body
	b.SetBytes(int64(len(page)))
	scripts := 0
	for i := 0; i < b.N; i++ {
		dom.ScanTags(page, func(tag string, _ dom.AttrList) {
			if tag == "script" {
				scripts++
			}
		})
	}
	if scripts == 0 {
		b.Fatal("no <script> tag scanned")
	}
}

func BenchmarkCrawl_OneSiteDay(b *testing.B) {
	corpus := webcorpus.Generate(webcorpus.Params{Sites: 100, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := corpus.Sites[i%len(corpus.Sites)]
		if resp := s.RenderPage(i % 100); resp == nil {
			b.Fatal("nil page")
		}
	}
}

func BenchmarkSeal_XORRoundTrip(b *testing.B) {
	msg := bytes.Repeat([]byte("m"), 4096)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if _, err := httpsim.Open("bank.com", httpsim.Seal("bank.com", msg)); err != nil {
			b.Fatal(err)
		}
	}
}
