// Sharded multi-core simulation: a Fabric partitions the simulated
// world into Shards (one per LAN), each owning a full single-threaded
// Network — its own event slab, 4-ary heap, and frame pool — and joins
// them with inter-shard uplinks that declare a minimum crossing
// latency. That declared latency is the *lookahead* of a conservative
// time-window parallel discrete-event simulation:
//
//   - The fabric advances in windows of width L = min(uplink latency).
//     Within a window [t, t+L] every shard runs independently — in
//     parallel on a worker pool — because no frame sent after t can
//     reach another shard before t+L.
//   - Frames leaving a shard are captured into per-(src-shard,
//     dst-shard) mailboxes, in the src shard's deterministic execution
//     order, with payloads appended to the src shard's boundary byte
//     arena: a mailbox entry holds offsets into it.
//   - At the window barrier the mailboxes are merged into each
//     destination shard in a fixed order — arrival timestamp, then src
//     shard ID, then per-mailbox send order. Each payload is copied into
//     a frame from the dst shard's own pool and scheduled as a forward
//     event, which sends that frame on its segment at the arrival
//     instant. The arenas then reset: no event points into one.
//
// Because each shard is deterministic on its own, the mailboxes fill
// deterministically, and the merge order is a pure function of their
// contents, a fabric run is byte-identical at any worker count: 1, 4,
// and 8 workers produce the same deliveries, the same wire events per
// shard, and the same artifact bytes. docs/SCALING.md walks through the
// protocol, its proof obligations, and the sizing trade-offs.
package netsim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"masterparasite/internal/runner"
)

// ErrZeroLookahead rejects an inter-shard link with no declared minimum
// latency: the conservative window protocol is only correct when every
// cross-shard frame needs at least the lookahead to arrive, so a
// zero-latency uplink would let shard A affect shard B inside the
// window the shards are running unsynchronised.
var ErrZeroLookahead = errors.New("netsim: inter-shard uplink needs a positive minimum latency — it is the lookahead of the conservative time-window protocol")

// boundary is one frame crossing a shard boundary: its payload's
// offsets in the source shard's arena (frames never cross pools), plus
// the precomputed arrival instant and the destination segment.
type boundary struct {
	at         time.Duration // arrival at the destination shard
	src        Addr
	dst        Addr
	proto      Protocol
	start, end int      // payload = source shard's arena[start:end]
	seg        *Segment // destination segment (owned by the dst shard)
}

// mailboxRun is one source shard's sorted mailbox in the barrier's
// k-way merge, with the arena its offsets point into.
type mailboxRun struct {
	mb    []boundary
	arena []byte
}

// owner records where an address lives: which shard, and on which of
// its segments a frame for it must be re-transmitted.
type owner struct {
	shard *Shard
	seg   *Segment
}

// Fabric is a set of shards joined by latency-bounded uplinks. Build
// the whole topology — shards, segments, interfaces, uplinks — before
// the first Run: the fabric seals its global address table then.
type Fabric struct {
	shards    []*Shard
	byName    map[string]*Shard
	owners    map[Addr]owner
	lookahead time.Duration
	uplinks   int
	sealed    bool

	mergeScratch []mailboxRun // barrier k-way merge heads, reused across windows
	stats        RunStats     // last Run's parallel structure
}

// Shard is one independently clocked partition of the fabric. All of a
// shard's segments, interfaces, and handlers execute on the shard's own
// Network — single-threaded, exactly as in an unsharded simulation — so
// per-shard state (handlers, taps, RNGs) needs no locking as long as it
// is never shared across shards.
type Shard struct {
	fab  *Fabric
	id   int
	name string
	net  *Network

	outbox     [][]boundary // per-destination-shard mailbox, filled in execution order
	arena      []byte       // this window's exported payloads, reset at the barrier
	unroutable int
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{byName: make(map[string]*Shard)}
}

// AddShard creates a shard with its own Network. Shard IDs are assigned
// in creation order and break merge ties, so topology builders must
// create shards in a deterministic order.
func (f *Fabric) AddShard(name string) (*Shard, error) {
	if f.sealed {
		return nil, fmt.Errorf("%w: shard %s", ErrSealed, name)
	}
	if _, dup := f.byName[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate shard %q", name)
	}
	s := &Shard{fab: f, id: len(f.shards), name: name, net: New()}
	f.shards = append(f.shards, s)
	f.byName[name] = s
	return s, nil
}

// MustAddShard is AddShard for topology construction; it panics on error.
func (f *Fabric) MustAddShard(name string) *Shard {
	s, err := f.AddShard(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the shard's name.
func (s *Shard) Name() string { return s.name }

// Network returns the shard's own network. Attach segments, hosts, and
// wire taps here exactly as on an unsharded simulation —
// but never share handler state between shards: during a window every
// shard executes concurrently with the others.
func (s *Shard) Network() *Network { return s.net }

// Unroutable reports how many cross-shard frames named a destination no
// shard owns; they are dropped at the boundary.
func (s *Shard) Unroutable() int { return s.unroutable }

// Uplink declares the shard's route to the rest of the fabric: a
// boundary tap on seg that exports every frame addressed off-segment.
// minLatency is the guaranteed minimum crossing time — the WAN hop of
// the paper's uplink — and must be positive, because the fabric's
// lookahead is the minimum over all uplinks. A shard may declare
// several uplinks, at most one per segment: a second boundary tap would
// export every crossing frame twice. Frames are routed by the global
// owner table, not by which uplink exported them.
func (s *Shard) Uplink(seg *Segment, minLatency time.Duration) error {
	if minLatency <= 0 {
		return fmt.Errorf("%w (shard %s, segment %s, latency %v)", ErrZeroLookahead, s.name, seg.Name(), minLatency)
	}
	if s.fab.sealed {
		return fmt.Errorf("%w: uplink on shard %s, segment %s", ErrSealed, s.name, seg.Name())
	}
	if seg.net != s.net {
		return fmt.Errorf("netsim: segment %s does not belong to shard %s", seg.Name(), s.name)
	}
	if seg.uplink {
		return fmt.Errorf("netsim: shard %s already has an uplink on segment %s", s.name, seg.Name())
	}
	seg.uplink = true
	seg.AttachTap(0, func(now time.Duration, pkt Packet) {
		if seg.lookup(pkt.Dst) != nil {
			return // local traffic: the shard's own business
		}
		s.export(now+minLatency, pkt)
	})
	if s.fab.lookahead == 0 || minLatency < s.fab.lookahead {
		s.fab.lookahead = minLatency
	}
	s.fab.uplinks++
	return nil
}

// export queues one outbound frame in the mailbox for its owner shard.
// It runs on the shard's executor (single-threaded) and touches only
// this shard's outbox and arena, so parallel windows need no locking.
// The payload is copied into the arena: pooled frame buffers never cross
// a shard boundary.
func (s *Shard) export(at time.Duration, pkt Packet) {
	own, ok := s.fab.owners[pkt.Dst] // read-only after seal: safe concurrently
	if !ok {
		s.unroutable++
		return
	}
	start := len(s.arena)
	s.arena = append(s.arena, pkt.Payload...)
	s.outbox[own.shard.id] = append(s.outbox[own.shard.id], boundary{
		at: at, src: pkt.Src, dst: pkt.Dst, proto: pkt.Proto,
		start: start, end: len(s.arena),
		seg: own.seg,
	})
}

// Lookahead reports the fabric's window width: the minimum declared
// uplink latency (zero while no uplink exists).
func (f *Fabric) Lookahead() time.Duration { return f.lookahead }

// RunStats describes the last Run's parallel structure. Every field is
// deterministic — a pure function of the topology and seeds, identical
// at any worker count — which makes CriticalPath a machine-independent
// scaling measure: on an unloaded machine with as many free cores as
// workers, wall-clock time tracks the critical path, not the total.
type RunStats struct {
	// Windows is the number of conservative time windows executed.
	Windows int
	// Events is the total number of events across all shards.
	Events int
	// Boundary is the number of frames that crossed a shard boundary.
	Boundary int
	// CriticalPath lower-bounds the events a perfectly parallel run of
	// the given worker count must execute in sequence: per window, the
	// busiest shard or an even worker share of the window's total,
	// whichever is larger, summed over windows.
	CriticalPath int
}

// Stats returns the statistics of the most recent Run.
func (f *Fabric) Stats() RunStats { return f.stats }

// seal freezes the topology: the global owner table is built from every
// shard's attached interfaces, each shard gets its per-destination
// mailboxes, and each shard's network refuses new segments and
// interfaces from then on. An address with two owners — on two shards,
// or on two segments of one shard — is an error: ownership is what
// makes boundary routing deterministic. Shards are visited in ID order and segments in
// name order, so the error is the same on every build of a topology.
func (f *Fabric) seal() error {
	if f.sealed {
		return nil
	}
	n := 0 // the interfaces, counted so the table never grows
	for _, s := range f.shards {
		for _, seg := range s.net.segments {
			n += len(seg.byAddr)
		}
	}
	f.owners = make(map[Addr]owner, n)
	for _, s := range f.shards {
		segs := make([]*Segment, 0, len(s.net.segments))
		for _, seg := range s.net.segments {
			segs = append(segs, seg)
		}
		slices.SortFunc(segs, func(a, b *Segment) int { return strings.Compare(a.name, b.name) })
		for _, seg := range segs {
			for _, chunk := range seg.chunks { // attach order
				for i := range chunk {
					addr := chunk[i].addr
					if prev, dup := f.owners[addr]; dup {
						return fmt.Errorf("netsim: address %s owned by %s/%s and %s/%s",
							addr, prev.shard.name, prev.seg.name, s.name, seg.name)
					}
					f.owners[addr] = owner{shard: s, seg: seg}
				}
			}
		}
	}
	for _, s := range f.shards {
		s.outbox = make([][]boundary, len(f.shards))
		s.net.sealedBy = s
	}
	f.sealed = true
	return nil
}

// nextEventTime returns the earliest pending event across all shards.
func (f *Fabric) nextEventTime() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, s := range f.shards {
		if at, ok := s.net.NextEventAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// sortMailbox restores arrival order in one mailbox, stably (equal
// timestamps keep send order). A mailbox is naturally sorted already —
// exports happen in the shard's time-ordered execution and add a fixed
// uplink latency — so this is a single O(n) verification pass unless
// the shard mixes uplinks of different latencies; the insertion sort
// only moves the rare stragglers.
func sortMailbox(mb []boundary) {
	for i := 1; i < len(mb); i++ {
		for j := i; j > 0 && mb[j].at < mb[j-1].at; j-- {
			mb[j], mb[j-1] = mb[j-1], mb[j]
		}
	}
}

// exchange is the window barrier: every mailbox destined to shard d is
// merged — arrival timestamp first, then src shard ID, then per-mailbox
// send order — and scheduled into d's queue. It runs sequentially on
// the fabric's driver, after all shards have reached the deadline, so
// every shard's clock equals the deadline and every arrival instant is
// at or past it (the lookahead guarantee). The merge is a hand-rolled
// k-way pick over the per-src sorted runs: at fleet scale the barrier
// is on the critical path of every window, and a reflection-based
// stable sort here costs more than the simulation itself.
//
// Each payload is copied out of its source arena into a frame from d's
// pool, which a forward event sends on its segment at the arrival
// instant — possibly several windows later, when uplink latencies
// differ. Once every mailbox has drained, no event points into an
// arena, so the arenas reset for the next window.
func (f *Fabric) exchange() {
	for _, d := range f.shards {
		runs := f.mergeScratch[:0]
		for _, src := range f.shards { // src shard ID order: the second merge key
			if mb := src.outbox[d.id]; len(mb) > 0 {
				sortMailbox(mb)
				runs = append(runs, mailboxRun{mb: mb, arena: src.arena})
			}
		}
		for len(runs) > 0 {
			// Pick the earliest head; ties go to the lowest src shard ID,
			// which is the order runs were gathered in.
			min := 0
			for r := 1; r < len(runs); r++ {
				if runs[r].mb[0].at < runs[min].mb[0].at {
					min = r
				}
			}
			run := &runs[min]
			b := &run.mb[0]
			f.stats.Boundary++
			fr := d.net.acquireFrame()
			fr.load(b.seg, b.src, b.dst, b.proto, append(fr.buf[:0], run.arena[b.start:b.end]...))
			d.net.push(event{at: b.at, kind: evForward, fr: fr})
			if run.mb = run.mb[1:]; len(run.mb) == 0 {
				runs = append(runs[:min], runs[min+1:]...)
			}
		}
		for _, src := range f.shards {
			src.outbox[d.id] = src.outbox[d.id][:0]
		}
		f.mergeScratch = runs[:0]
	}
	for _, s := range f.shards {
		s.arena = s.arena[:0]
	}
}

// Run drains the whole fabric to quiescence on a pool of the given
// width (runner.New semantics: 0 = GOMAXPROCS, 1 = strictly
// sequential) and returns the total number of events executed. The
// result — every delivery, every wire event, every handler state — is
// byte-identical at any worker count: workers change wall-clock time,
// never virtual behaviour. Run may be called again after scheduling
// more work, but the topology is sealed at the first call.
func (f *Fabric) Run(workers int) (int, error) {
	if err := f.seal(); err != nil {
		return 0, err
	}
	pool := runner.New(workers)
	f.stats = RunStats{}
	fold := func(counts []int) {
		f.stats.Windows++
		window, max := 0, 0
		for _, c := range counts {
			window += c
			if c > max {
				max = c
			}
		}
		f.stats.Events += window
		// A window's parallel floor: the busiest shard, or an even share
		// of the window across the pool, whichever binds.
		floor := (window + pool.Workers() - 1) / pool.Workers()
		if max > floor {
			floor = max
		}
		f.stats.CriticalPath += floor
	}
	if f.uplinks == 0 {
		// No inter-shard links: the shards are isolated worlds, each
		// drained to quiescence in one shot.
		counts, _ := runner.Map(pool, f.shards, func(_ int, s *Shard) (int, error) {
			return s.net.Run(0), nil
		})
		fold(counts)
		return f.stats.Events, nil
	}
	for {
		start, ok := f.nextEventTime()
		if !ok {
			return f.stats.Events, nil
		}
		deadline := start + f.lookahead
		counts, _ := runner.Map(pool, f.shards, func(_ int, s *Shard) (int, error) {
			return s.net.RunUntil(deadline), nil
		})
		fold(counts)
		f.exchange()
	}
}
