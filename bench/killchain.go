package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"masterparasite/internal/attacker"
	"masterparasite/internal/core"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
)

const (
	chainBot    = "bot-bench"
	chainStrain = "bench"
	chainModule = "bench"
	chainStream = "loot"
)

// chainInput is everything one kill chain varies. It is a pure function
// of (workload seed, op index), so both commits of a comparison run the
// same chains.
type chainInput struct {
	Seed    int64    // scenario seed
	Lossy   bool     // coffee-shop-wifi link with TCP retransmission
	Targets []string // propagation target domains, 1–4
	Junk    int      // eviction-flood junk objects, 4–32
	Command []byte   // C&C command parameters, 64 B–1 KiB
	Exfil   []byte   // bytes the module exfiltrates, 256 B–4 KiB
}

// chainInputs derives op's kill-chain input from the workload seed.
// Every fourth chain runs over the lossy link.
func chainInputs(seed int64, op int) chainInput {
	s := runner.Seed(seed, "killchain-"+strconv.Itoa(op))
	rng := rand.New(rand.NewSource(s))
	in := chainInput{Seed: s, Lossy: op%4 == 3, Junk: 4 + rng.Intn(29)}
	targets := 1 + rng.Intn(4)
	for t := 1; t <= targets; t++ {
		in.Targets = append(in.Targets, "top"+strconv.Itoa(t)+".com")
	}
	in.Command = make([]byte, 64+rng.Intn(961))
	for i := range in.Command {
		in.Command[i] = 'a' + byte(rng.Intn(26))
	}
	in.Exfil = make([]byte, 256+rng.Intn(3841))
	rng.Read(in.Exfil)
	return in
}

// chainCounters are the per-chain layer counters the traced run sums.
var chainCounters = []string{
	"netsim.wire_sends", "netsim.wire_delivers", "netsim.wire_drops", "netsim.wire_dups",
	"netsim.frames_acquired",
	"attacker.requests_seen", "attacker.injections", "attacker.eviction_scripts",
	"httpcache.hits", "httpcache.misses", "httpcache.evictions",
	"browser.net_fetches", "browser.cache_serves",
	"parasite.polls", "parasite.commands", "parasite.anchors",
	"cnc.command_bytes", "cnc.exfil_bytes",
}

var chainPhases = []string{"killchain.setup", "killchain.evict", "killchain.infect", "killchain.cnc"}

func killchainLayers() []metricDef {
	var defs []metricDef
	for _, p := range chainPhases {
		defs = append(defs, metricDef{p + "_ms", "ms"}, metricDef{p + ".allocs", "count"})
	}
	defs = append(defs,
		metricDef{"killchain.clean.op_ms_p50", "ms"},
		metricDef{"killchain.lossy.op_ms_p50", "ms"},
		metricDef{"killchain.lossy.attack_lost_ratio", "ratio"},
		metricDef{"netsim.frames_unreleased", "count"})
	for _, c := range chainCounters {
		defs = append(defs, metricDef{c, "count"})
	}
	return defs
}

// errAttackLost marks a lossy chain whose link defeated the attack: a
// legitimate outcome of the simulation, not a failed op, as long as the
// victim's state stayed consistent.
var errAttackLost = errors.New("attack lost on the lossy link")

// killchain runs single-victim kill chains: eviction flood, TCP
// injection, iframe propagation, then C&C from the home network.
type killchain struct {
	seed int64

	// Traced-phase state; killchain has one client, so no locking.
	counts              map[string]float64
	chains, lossy, lost int
	cleanMs, lossyMs    []float64
}

func setupKillchain(cfg config) (instance, error) {
	k := &killchain{seed: cfg.seed, counts: make(map[string]float64)}
	for i := 0; i < cfg.sizes.chainWarmup; i++ {
		if err := k.op(opCtx{index: i}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return k, nil
}

func (k *killchain) op(c opCtx) error {
	in := chainInputs(k.seed, c.index)
	t0 := time.Now()
	counts, err := runChain(c, in)
	lost := in.Lossy && errors.Is(err, errAttackLost)
	if c.tr != nil {
		d := msOf(time.Since(t0))
		k.chains++
		if in.Lossy {
			k.lossy++
			k.lossyMs = append(k.lossyMs, d)
		} else {
			k.cleanMs = append(k.cleanMs, d)
		}
		if lost {
			k.lost++
		}
		for name, v := range counts {
			k.counts[name] += v
		}
	}
	if lost {
		return nil
	}
	return err
}

// runChain runs one kill chain and checks it: no pooled frame leaks, the
// script is infected, the parasite executed exactly one command with the
// queued parameters, and the C&C received exactly the exfiltrated bytes.
// On a traced run it also returns the chain's layer counters.
func runChain(c opCtx, in chainInput) (map[string]float64, error) {
	sp := c.span("killchain.setup")
	s, got, err := newChainScenario(in)
	sp.end()
	if err != nil {
		return nil, err
	}
	var wire [netsim.WireDupDeliver + 1]int
	if c.tr != nil {
		s.Net.SetWireTap(func(ev netsim.WireEvent) { wire[ev.Kind]++ })
	}
	scripts, err := visitChain(c, s, in)
	acquired, released := s.Net.FrameStats()
	var counts map[string]float64
	if c.tr != nil {
		ms, cs, ps := s.Master.Stats(), s.Victim.Cache().Stats(), s.Registry
		upload, _ := s.CNC.Upload(chainBot, chainStream)
		counts = map[string]float64{
			"netsim.wire_sends":         float64(wire[netsim.WireSend]),
			"netsim.wire_delivers":      float64(wire[netsim.WireDeliver]),
			"netsim.wire_drops":         float64(wire[netsim.WireDrop]),
			"netsim.wire_dups":          float64(wire[netsim.WireDupDeliver]),
			"netsim.frames_acquired":    float64(acquired),
			"netsim.frames_unreleased":  float64(acquired - released),
			"attacker.requests_seen":    float64(ms.RequestsSeen),
			"attacker.injections":       float64(ms.Injections),
			"attacker.eviction_scripts": float64(ms.EvictionScripts),
			"httpcache.hits":            float64(cs.Hits),
			"httpcache.misses":          float64(cs.Misses),
			"httpcache.evictions":       float64(cs.Evictions),
			"browser.net_fetches":       float64(s.Victim.NetFetches()),
			"browser.cache_serves":      float64(s.Victim.CacheServes()),
			"parasite.polls":            float64(ps.Polls()),
			"parasite.commands":         float64(ps.Commands()),
			"parasite.anchors":          float64(ps.Anchors()),
			"cnc.command_bytes":         float64(len(in.Command)),
			"cnc.exfil_bytes":           float64(len(upload)),
		}
	}
	switch {
	case acquired != released:
		return counts, fmt.Errorf("%d pooled frames never released", acquired-released)
	case err != nil:
		return counts, err
	}
	return counts, checkChain(s, scripts, in, *got)
}

// visitChain drives the victim through the chain's three page loads and
// returns the scripts of the infection visit. A lossy link may eat a
// page load: that loses the attack, while on the clean link it fails
// the op.
func visitChain(c opCtx, s *core.Scenario, in chainInput) ([]*script.Script, error) {
	lost := func(phase string, err error) error {
		if in.Lossy {
			return errAttackLost
		}
		return fmt.Errorf("%s: %w", phase, err)
	}
	sp := c.span("killchain.evict")
	_, err := s.Visit("any.com", "/")
	sp.end()
	if err != nil {
		return nil, lost("eviction", err)
	}
	sp = c.span("killchain.infect")
	page, err := s.Visit("site.com", "/")
	sp.end()
	if err != nil {
		return nil, lost("infection", err)
	}
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand(chainBot, append([]byte(chainModule+"|"), in.Command...))
	sp = c.span("killchain.cnc")
	_, err = s.Visit("site.com", "/")
	sp.end()
	if err != nil {
		return nil, lost("c&c", err)
	}
	return page.Scripts, nil
}

// checkChain verifies a finished chain. On the lossy link a chain that
// stopped short — the script never infected, or the command or the
// upload never completed — lost the attack; anything that completed
// wrongly is a failure on either link.
func checkChain(s *core.Scenario, scripts []*script.Script, in chainInput, got []byte) error {
	if n := s.Registry.Commands(); n > 1 {
		return fmt.Errorf("parasite executed %d commands, want 1", n)
	}
	if got != nil && !bytes.Equal(got, in.Command) {
		return fmt.Errorf("module received %d command bytes that differ from the %d queued", len(got), len(in.Command))
	}
	upload, uploaded := s.CNC.Upload(chainBot, chainStream)
	if uploaded && !bytes.Equal(upload, in.Exfil) {
		return fmt.Errorf("c&c received %d exfiltrated bytes that differ from the %d sent", len(upload), len(in.Exfil))
	}
	infected := false
	for _, sc := range scripts {
		infected = infected || script.Infected(sc.Content)
	}
	var short string
	switch {
	case !infected:
		short = "site script not infected"
	case s.Master.Stats().EvictionScripts == 0:
		short = "no eviction script injected"
	case s.Registry.Commands() == 0:
		short = "no command executed"
	case !uploaded:
		short = "exfiltration never finished"
	default:
		return nil
	}
	if in.Lossy {
		return errAttackLost
	}
	return errors.New(short)
}

// newChainScenario assembles the victim's world for one chain: a
// trigger page for the eviction flood, the site whose script the master
// infects, and the propagation targets. got receives the parameters the
// bench module was invoked with.
func newChainScenario(in chainInput) (*core.Scenario, *[]byte, error) {
	cfg := core.Config{Seed: in.Seed}
	if in.Lossy {
		lp, err := netsim.ProfileByName("coffee-shop-wifi")
		if err != nil {
			return nil, nil, err
		}
		lp.Seed = uint64(in.Seed)
		cfg.Link, cfg.Retransmit = &lp, true
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, nil, err
	}
	noStore := map[string]string{"Cache-Control": "no-store"}
	cached := map[string]string{"Cache-Control": "max-age=600", "Content-Type": "application/javascript"}
	s.AddPage("any.com", "/", "<html><body>any</body></html>", noStore)
	s.AddPage("site.com", "/", `<html><body><script src="/app.js"></script></body></html>`, noStore)
	s.AddPage("site.com", "/app.js", "function app(){}", cached)
	s.Master.AddTarget(attacker.Target{Name: "site.com/app.js", Kind: attacker.KindJS,
		ParasitePayload: chainStrain, Original: []byte("function app(){}")})
	for _, t := range in.Targets {
		s.AddPage(t, "/", `<html><body><script src="/lib.js"></script></body></html>`, nil)
		s.AddPage(t, "/lib.js", "function lib(){}", cached)
		s.Master.AddTarget(attacker.Target{Name: t + "/lib.js", Kind: attacker.KindJS,
			ParasitePayload: chainStrain, Original: []byte("function lib(){}")})
	}
	s.Master.EnableEviction(core.JunkHost, in.Junk, 1024, "any.com")

	got := new([]byte)
	strain := parasite.NewConfig(chainStrain, chainBot, core.MasterHost)
	strain.PropagationTargets = in.Targets
	strain.Modules[chainModule] = func(_ script.Env, params string, exfil parasite.Exfil) error {
		*got = []byte(params)
		exfil(chainStream, in.Exfil)
		return nil
	}
	s.Registry.Add(strain)
	return s, got, nil
}

func (k *killchain) layers(tr *tracer) map[string]metric {
	st := tr.summary()
	m := make(map[string]metric)
	for _, p := range chainPhases {
		m[p+"_ms"] = spanMs(st, p)
		m[p+".allocs"] = spanAllocs(st, p)
	}
	m["killchain.clean.op_ms_p50"] = metric{median(k.cleanMs), "ms", len(k.cleanMs)}
	m["killchain.lossy.op_ms_p50"] = metric{median(k.lossyMs), "ms", len(k.lossyMs)}
	m["killchain.lossy.attack_lost_ratio"] = metric{float64(k.lost) / float64(max(k.lossy, 1)), "ratio", k.lossy}
	// The leak check is a total over every chain; the rest are per-chain means.
	m["netsim.frames_unreleased"] = metric{k.counts["netsim.frames_unreleased"], "count", k.chains}
	for _, name := range chainCounters {
		m[name] = metric{k.counts[name] / float64(max(k.chains, 1)), "count", k.chains}
	}
	return m
}

func (k *killchain) close() error { return nil }
