package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/runner"
)

// The fleet generator: parameterized N-LANs × M-victims topologies on
// the sharded netsim fabric. Each LAN is one shard — a coffee-shop WiFi
// of the paper, with its own event heap and frame pool — and a backbone
// shard hosts the C&C master. Infection seeds per LAN, spreads by
// seeded local gossip (the master on that WiFi infecting every client
// it can see, §VI-C's botnet case), and every newly infected bot
// registers with the C&C across the uplink and receives its first
// command back. All randomness derives from FleetConfig.Seed via
// per-LAN PRNGs that only ever run on their own shard, so a fleet run
// is byte-identical at any worker count.

// CNCAddr is the C&C master's address on the backbone shard.
const CNCAddr netsim.Addr = "cnc-master"

// Fixed fleet shape.
const (
	// uplinkLatency is the declared minimum LAN→backbone crossing time;
	// it becomes the fabric's lookahead.
	uplinkLatency = 5 * time.Millisecond
	// gossipFanout is how many LAN neighbours each newly infected bot
	// attacks.
	gossipFanout = 3
	// commandBytes sizes the C&C command each registered bot receives.
	commandBytes = 96
)

// infPayload is the gossip frame that infects a LAN neighbour. Every
// gossip send shares it: Send copies the payload into a pooled frame.
var infPayload = []byte("INF")

// FleetConfig parameterises a botnet fleet topology.
type FleetConfig struct {
	// LANs is the number of LAN shards (coffee-shop WiFis).
	LANs int
	// BotsPerLAN is the number of victim stations per LAN.
	BotsPerLAN int
	// Seed drives every random choice: patient zero per LAN, gossip
	// targets and delays. Zero selects 1.
	Seed int64
	// Link, when non-nil, impairs every LAN segment with the given
	// fault profile (each LAN draws from its own seeded PRNG).
	Link *netsim.LinkProfile
}

// InfectionEvent is one bot falling to the parasite.
type InfectionEvent struct {
	At  time.Duration `json:"at_ns"`
	LAN int           `json:"lan"`
	Bot int           `json:"bot"`
}

// FleetResult is the aggregated outcome of one fleet run. Every field
// is derived from virtual time and per-shard state merged in shard
// order, so results are identical at any worker count.
type FleetResult struct {
	Bots         int
	Infected     int
	Registered   int // REG frames the C&C master accepted
	Commanded    int // bots whose first command arrived
	CommandBytes int // total command payload delivered
	Events       int
	// Infections is the global infection log, ordered by
	// (time, LAN, bot) — the infection curve's raw data.
	Infections []InfectionEvent
	// Latencies are the per-bot REG→command round trips in
	// (LAN, bot index) order; zero entries are bots never commanded.
	Latencies []time.Duration
	// LastCommandAt is the virtual instant the final command landed —
	// the fan-out completion time the goodput is measured against.
	LastCommandAt time.Duration
	// LinkLost / LinkDup total the LAN links' fault counters.
	LinkLost int
	LinkDup  int
}

// Goodput reports the C&C fan-out rate in KB/s of virtual time:
// total command payload over the instant the last command landed.
func (r FleetResult) Goodput() float64 {
	if r.LastCommandAt <= 0 {
		return 0
	}
	return float64(r.CommandBytes) / r.LastCommandAt.Seconds() / 1024
}

// LatencyPercentiles returns the p50/p90/p99/max command round trips
// over the commanded bots (zero-latency never-commanded bots excluded).
func (r FleetResult) LatencyPercentiles() (p50, p90, p99, max time.Duration) {
	lat := make([]time.Duration, 0, len(r.Latencies))
	for _, l := range r.Latencies {
		if l > 0 {
			lat = append(lat, l)
		}
	}
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(lat)
	at := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return at(0.50), at(0.90), at(0.99), lat[len(lat)-1]
}

// fleetBot is one victim station's whole state — deliberately tiny, so
// a 10⁶-bot fleet stays in memory.
type fleetBot struct {
	ifc     *netsim.Interface
	regAt   time.Duration // the infection instant, when the bot registers
	latency time.Duration
	// peers are the LAN neighbours the bot gossips to, drawn when it is
	// infected. A bot is infected only once, so they cannot change while
	// its gossip is pending.
	peers    [gossipFanout]int32
	infected bool
}

// fleetLAN is one LAN shard's world: bots, counters, and the LAN's own
// PRNG. Everything here is touched only by the shard's executor, never
// by another shard.
type fleetLAN struct {
	id        int
	shard     *netsim.Shard
	seg       *netsim.Segment
	bots      []fleetBot
	rng       *rand.Rand
	gossip    func(int32) // ScheduleCall target: arg = bot×gossipFanout + g
	commanded int
	lastCmdAt time.Duration
	bytesGot  int
}

// Fleet is one assembled botnet topology, ready to Run. Tests may
// attach wire taps or replay recorders to the shards' networks before
// the run (LANShard/Backbone).
type Fleet struct {
	cfg      FleetConfig
	fab      *netsim.Fabric
	backbone *netsim.Shard
	lans     []*fleetLAN
	master   struct {
		registered int
		sent       int
	}
}

// NewFleet builds the topology: one shard per LAN plus the backbone
// shard with the C&C master, all uplinks declaring uplinkLatency.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LANs < 1 || cfg.BotsPerLAN < 1 {
		return nil, fmt.Errorf("core: fleet needs at least 1 LAN and 1 bot per LAN (got %d×%d)", cfg.LANs, cfg.BotsPerLAN)
	}
	if cfg.BotsPerLAN > math.MaxInt32/gossipFanout {
		return nil, fmt.Errorf("core: %d bots per LAN overflow a gossip call's int32 argument", cfg.BotsPerLAN)
	}
	f := &Fleet{cfg: cfg, fab: netsim.NewFabric()}

	// Backbone first (shard ID 0): merge ties favour the master's
	// replies, a fixed and documented choice.
	f.backbone = f.fab.MustAddShard("backbone")
	bbSeg := f.backbone.Network().MustSegment("backbone", 500*time.Microsecond)
	masterIfc, err := bbSeg.Attach(CNCAddr, 100*time.Microsecond, nil)
	if err != nil {
		return nil, err
	}
	cmd := make([]byte, commandBytes)
	copy(cmd, "CMD")
	for i := 3; i < len(cmd); i++ {
		cmd[i] = byte('a' + i%26)
	}
	masterIfc.SetHandler(func(_ time.Duration, pkt netsim.Packet) {
		if len(pkt.Payload) < 3 || string(pkt.Payload[:3]) != "REG" {
			return
		}
		f.master.registered++
		f.master.sent += len(cmd)
		masterIfc.Send(netsim.Packet{Dst: pkt.Src, Proto: netsim.ProtoRaw, Payload: cmd})
	})
	if err := f.backbone.Uplink(bbSeg, uplinkLatency); err != nil {
		return nil, err
	}

	for l := 0; l < cfg.LANs; l++ {
		lan := &fleetLAN{id: l, rng: rand.New(rand.NewSource(runner.Seed(cfg.Seed, fmt.Sprintf("fleet-lan-%d", l))))}
		lan.gossip = func(arg int32) { f.gossip(lan, int(arg)) }
		// Every bot on the LAN shares one handler, which reads the bot
		// back from the frame's destination address.
		receive := func(now time.Duration, pkt netsim.Packet) {
			f.botReceive(lan, botIndex(pkt.Dst), now, pkt)
		}
		lan.shard, err = f.fab.AddShard(fmt.Sprintf("lan%04d", l))
		if err != nil {
			return nil, err
		}
		lan.seg = lan.shard.Network().MustSegment("wifi", 200*time.Microsecond)
		if cfg.Link != nil {
			lp := *cfg.Link
			// Each LAN draws faults from its own stream, derived from the
			// profile seed and the LAN id — scheduling-independent.
			lp.Seed = lp.Seed ^ uint64(0x9E3779B97F4A7C15*uint64(l+1))
			lan.seg.SetLinkProfile(lp)
		}
		lan.bots = make([]fleetBot, cfg.BotsPerLAN)
		// The LAN's addresses are slices of one string: Grow sizes it for
		// the widest address, and a Builder never rewrites its bytes.
		var addrs strings.Builder
		var buf [48]byte
		addrs.Grow(cfg.BotsPerLAN * len(botAddr(buf[:0], l, cfg.BotsPerLAN-1)))
		for b := 0; b < cfg.BotsPerLAN; b++ {
			start := addrs.Len()
			addrs.Write(botAddr(buf[:0], l, b))
			addr := netsim.Addr(addrs.String()[start:])
			delay := time.Duration(lan.rng.Intn(300)) * time.Microsecond
			if lan.bots[b].ifc, err = lan.seg.Attach(addr, delay, receive); err != nil {
				return nil, err
			}
		}
		if err := lan.shard.Uplink(lan.seg, uplinkLatency); err != nil {
			return nil, err
		}
		// Patient zero: the eavesdropping master on this WiFi wins its
		// first injection race at a seeded instant.
		zero := lan.rng.Intn(cfg.BotsPerLAN)
		at := time.Duration(lan.rng.Intn(20000)) * time.Microsecond
		lan.shard.Network().Schedule(at, func() { f.infect(lan, zero) })
		f.lans = append(f.lans, lan)
	}
	return f, nil
}

// botAddr appends bot b's address on LAN lan, l<lan>-b<b>, to p.
func botAddr(p []byte, lan, b int) []byte {
	p = append(p, 'l')
	p = strconv.AppendInt(p, int64(lan), 10)
	p = append(p, "-b"...)
	return strconv.AppendInt(p, int64(b), 10)
}

// botIndex reads the bot index back from an address botAddr wrote.
func botIndex(addr netsim.Addr) int {
	b := 0
	for i := strings.LastIndexByte(string(addr), 'b') + 1; i < len(addr); i++ {
		b = b*10 + int(addr[i]-'0')
	}
	return b
}

// botReceive dispatches one delivered frame on a bot.
func (f *Fleet) botReceive(lan *fleetLAN, b int, now time.Duration, pkt netsim.Packet) {
	switch {
	case len(pkt.Payload) >= 3 && string(pkt.Payload[:3]) == "INF":
		f.infect(lan, b)
	case len(pkt.Payload) >= 3 && string(pkt.Payload[:3]) == "CMD":
		bot := &lan.bots[b]
		if bot.latency != 0 || !bot.infected {
			return // duplicate command (faulty link) or spoofed noise
		}
		bot.latency = now - bot.regAt
		lan.commanded++
		lan.bytesGot += len(pkt.Payload)
		if now > lan.lastCmdAt {
			lan.lastCmdAt = now
		}
	}
}

// infect turns a bot: it logs the infection, registers with the C&C
// across the uplink, and gossips the parasite to seeded LAN neighbours
// after seeded delays. Runs only on the LAN's own shard.
func (f *Fleet) infect(lan *fleetLAN, b int) {
	bot := &lan.bots[b]
	if bot.infected {
		return
	}
	net := lan.shard.Network()
	now := net.Now()
	bot.infected = true
	bot.regAt = now
	// REG|<lan>|<bot>, written straight into the pooled frame.
	bot.ifc.SendPayload(CNCAddr, netsim.ProtoRaw, func(p []byte) []byte {
		p = append(p, "REG|"...)
		p = strconv.AppendInt(p, int64(lan.id), 10)
		p = append(p, '|')
		return strconv.AppendInt(p, int64(b), 10)
	})
	n := len(lan.bots)
	if n == 1 {
		return
	}
	for g := 0; g < gossipFanout; g++ {
		bot.peers[g] = int32((b + 1 + lan.rng.Intn(n-1)) % n)
		delay := time.Millisecond + time.Duration(lan.rng.Intn(24000))*time.Microsecond
		net.ScheduleCall(delay, lan.gossip, int32(b*gossipFanout+g))
	}
}

// gossip sends the parasite from bot arg/gossipFanout to its peer
// arg%gossipFanout, as infect scheduled it.
func (f *Fleet) gossip(lan *fleetLAN, arg int) {
	bot := &lan.bots[arg/gossipFanout]
	peer := lan.bots[bot.peers[arg%gossipFanout]].ifc
	bot.ifc.Send(netsim.Packet{Dst: peer.Addr(), Proto: netsim.ProtoRaw, Payload: infPayload})
}

// Fabric exposes the underlying sharded fabric (lookahead, shards).
func (f *Fleet) Fabric() *netsim.Fabric { return f.fab }

// Backbone returns the C&C shard.
func (f *Fleet) Backbone() *netsim.Shard { return f.backbone }

// LANs reports the LAN count.
func (f *Fleet) LANs() int { return len(f.lans) }

// LANShard returns LAN i's shard, e.g. to attach a wire tap or replay
// recorder before Run.
func (f *Fleet) LANShard(i int) *netsim.Shard { return f.lans[i].shard }

// Run drains the fleet on the given number of shard workers and folds
// the per-shard state — in shard order, so the aggregation is as
// deterministic as the simulation — into a FleetResult.
func (f *Fleet) Run(workers int) (FleetResult, error) {
	events, err := f.fab.Run(workers)
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{
		Bots:       f.cfg.LANs * f.cfg.BotsPerLAN,
		Registered: f.master.registered,
		Events:     events,
	}
	res.Infections = make([]InfectionEvent, 0, res.Bots)
	res.Latencies = make([]time.Duration, 0, res.Bots)
	for _, lan := range f.lans {
		res.Commanded += lan.commanded
		res.CommandBytes += lan.bytesGot
		if lan.lastCmdAt > res.LastCommandAt {
			res.LastCommandAt = lan.lastCmdAt
		}
		for b, bot := range lan.bots {
			if bot.infected {
				res.Infections = append(res.Infections, InfectionEvent{At: bot.regAt, LAN: lan.id, Bot: b})
			}
			res.Latencies = append(res.Latencies, bot.latency)
		}
		res.LinkLost += lan.seg.Lost()
		res.LinkDup += lan.seg.Duplicated()
	}
	res.Infected = len(res.Infections)
	// The global log orders by (time, LAN, bot) — the documented merge
	// convention. A bot is infected once, so the key is unique and an
	// unstable sort is exact.
	slices.SortFunc(res.Infections, func(a, b InfectionEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.LAN, b.LAN); c != 0 {
			return c
		}
		return cmp.Compare(a.Bot, b.Bot)
	})
	return res, nil
}
