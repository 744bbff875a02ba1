package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// starCase is one topology of the fabric matrix that buildStar
// assembles.
type starCase struct {
	name       string
	lans, bots int
	// uplinks are the LAN uplink latencies, cycled over the LANs; nil
	// gives every LAN the hub's uniform 2 ms.
	uplinks []time.Duration
	// lossy impairs every LAN segment with loss, duplication and
	// jitter; reorder adds held-back copies on top.
	lossy, reorder bool
	// secondSeg gives LAN 0 a second segment of bots whose uplink is
	// 1.5 ms slower than its first, so LAN 0's mailbox to the hub gets
	// out-of-order arrivals that sortMailbox has to move.
	secondSeg bool
	// extraTap attaches an eavesdropper to LAN 1's segment beside the
	// uplink's boundary tap.
	extraTap bool
}

// fabricMatrix sweeps the fabric's boundary paths: uniform and mixed
// uplink latencies (arrivals several windows after their export), a
// shard with two uplinks (a mailbox out of arrival order), lossy links
// with and without reorder, and a second tap on a LAN segment. digest
// pins each case's runStar digest: a change to the boundary path that
// keeps the fabric's behaviour leaves every one of them unchanged.
var fabricMatrix = []struct {
	starCase
	digest string
}{
	{starCase{name: "clean", lans: 6, bots: 40}, "c89bf399966a4710"},
	{starCase{name: "lossy", lans: 6, bots: 40, lossy: true}, "9d2ceb0af3fff2eb"},
	{starCase{name: "mixed-uplinks", lans: 6, bots: 40, uplinks: mixedUplinks}, "087a54ff4aa55425"},
	{starCase{name: "second-segment", lans: 6, bots: 40, secondSeg: true}, "b0cb0ce179a2ad03"},
	{starCase{name: "lossy-reorder", lans: 6, bots: 40, lossy: true, reorder: true}, "a90ea2c17591c113"},
	{starCase{name: "extra-tap", lans: 6, bots: 40, extraTap: true}, "f29ffc6b311a71a4"},
	{starCase{name: "mixed-lossy-reorder", lans: 6, bots: 40, uplinks: mixedUplinks, lossy: true, reorder: true}, "41b1ee8237a85ad0"},
	{starCase{name: "all", lans: 6, bots: 40, uplinks: mixedUplinks, lossy: true, reorder: true, secondSeg: true, extraTap: true}, "dea5bd78e3bd7ea2"},
}

var mixedUplinks = []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond}

// buildStar assembles the canonical test topology: c.lans LAN shards,
// each with c.bots stations and an uplink to a hub shard hosting one
// echo server. Bots fire seeded request bursts at the hub; the hub
// echoes back; every reply triggers one more local broadcast round so
// traffic mixes intra-shard and cross-shard events across several
// windows. shardPrints, when non-nil, receives one wire-event stream
// hash per shard (a wire tap attached to every shard's network).
func buildStar(t *testing.T, c starCase, shardPrints map[string]*uint64) (*Fabric, []*int) {
	t.Helper()
	fab := NewFabric()
	hub := fab.MustAddShard("hub")
	hubSeg := hub.Network().MustSegment("backbone", 500*time.Microsecond)
	var echoed int
	counters := []*int{&echoed}
	hubSeg.MustAttach("hub-server", 100*time.Microsecond, nil)
	srv := hubSeg.lookup("hub-server")
	srv.SetHandler(func(_ time.Duration, pkt Packet) {
		echoed++
		reply := append([]byte("echo:"), pkt.Payload...)
		srv.Send(Packet{Dst: pkt.Src, Proto: ProtoRaw, Payload: reply})
	})
	if err := hub.Uplink(hubSeg, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	attachPrint := func(name string, n *Network) {
		if shardPrints == nil {
			return
		}
		h := new(uint64)
		*h = 14695981039346656037 // fnv64a offset basis
		shardPrints[name] = h
		n.SetWireTap(func(ev WireEvent) {
			mix := func(b []byte) {
				for _, c := range b {
					*h ^= uint64(c)
					*h *= 1099511628211
				}
			}
			mix([]byte(fmt.Sprintf("%d|%d|%s|%s|%s|%d|", ev.Kind, ev.Time, ev.Segment, ev.Src, ev.Dst, ev.Proto)))
			mix(ev.Payload)
		})
	}
	attachPrint("hub", hub.Network())

	for l := 0; l < c.lans; l++ {
		shard := fab.MustAddShard(fmt.Sprintf("lan%02d", l))
		received := new(int)
		counters = append(counters, received)
		rng := rand.New(rand.NewSource(int64(7 + l)))
		uplink := 2 * time.Millisecond
		if len(c.uplinks) > 0 {
			uplink = c.uplinks[l%len(c.uplinks)]
		}
		// addSegment attaches one segment of bots named <prefix>-b<i>.
		addSegment := func(name, prefix string, uplink time.Duration) *Segment {
			seg := shard.Network().MustSegment(name, 200*time.Microsecond)
			if c.lossy {
				lp := LinkProfile{
					Name: "lossy", Loss: 0.05, Duplicate: 0.02,
					Jitter: 300 * time.Microsecond, Seed: uint64(1000 + l),
				}
				if c.reorder {
					lp.Reorder, lp.ReorderDelay = 0.1, 1500*time.Microsecond
				}
				seg.SetLinkProfile(lp)
			}
			for b := 0; b < c.bots; b++ {
				addr := Addr(fmt.Sprintf("%s-b%d", prefix, b))
				peer := Addr(fmt.Sprintf("%s-b%d", prefix, (b+1)%c.bots))
				var ifc *Interface
				ifc = seg.MustAttach(addr, time.Duration(rng.Intn(300))*time.Microsecond,
					func(_ time.Duration, pkt Packet) {
						*received++
						if len(pkt.Payload) > 4 && string(pkt.Payload[:5]) == "echo:" {
							// One local gossip round per echo: intra-shard load.
							ifc.Send(Packet{Dst: peer, Proto: ProtoRaw, Payload: []byte("gossip")})
						}
					})
				at := time.Duration(rng.Intn(4000)) * time.Microsecond
				payload := []byte(fmt.Sprintf("req-%s-%d", prefix, b))
				shard.Network().Schedule(at, func() {
					ifc.Send(Packet{Dst: "hub-server", Proto: ProtoRaw, Payload: payload})
				})
			}
			if err := shard.Uplink(seg, uplink); err != nil {
				t.Fatal(err)
			}
			return seg
		}
		seg := addSegment("wifi", fmt.Sprintf("l%d", l), uplink)
		if c.secondSeg && l == 0 {
			addSegment("wifi2", fmt.Sprintf("l%dx", l), uplink+1500*time.Microsecond)
		}
		if c.extraTap && l == 1 {
			tapped := new(int)
			counters = append(counters, tapped)
			seg.AttachTap(50*time.Microsecond, func(time.Duration, Packet) { *tapped++ })
		}
		attachPrint(shard.Name(), shard.Network())
	}
	return fab, counters
}

// starOutcome is one drained star fabric: its run statistics, the
// per-counter values, and (when wire taps were attached) the per-shard
// wire fingerprints.
type starOutcome struct {
	stats  RunStats
	vals   []int
	prints map[string]uint64
}

// digest folds the per-shard wire fingerprints, in shard-name order,
// with the event, window and boundary counts: one value that pins the
// whole run.
func (o starOutcome) digest() string {
	names := make([]string, 0, len(o.prints))
	for name := range o.prints {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%016x\n", name, o.prints[name])
	}
	fmt.Fprintf(h, "events=%d windows=%d boundary=%d\n", o.stats.Events, o.stats.Windows, o.stats.Boundary)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runStar builds and drains one star fabric at the given worker count.
func runStar(t *testing.T, workers int, c starCase, taps bool) starOutcome {
	t.Helper()
	var prints map[string]*uint64
	if taps {
		prints = make(map[string]*uint64)
	}
	fab, counters := buildStar(t, c, prints)
	events, err := fab.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	out := starOutcome{stats: fab.Stats(), vals: make([]int, len(counters)), prints: make(map[string]uint64, len(prints))}
	if events != out.stats.Events {
		t.Fatalf("Run returned %d events, Stats %d", events, out.stats.Events)
	}
	for i, c := range counters {
		out.vals[i] = *c
	}
	for name, h := range prints {
		out.prints[name] = *h
	}
	return out
}

// TestFabricDeterministicAcrossWorkers is the sharded engine's core
// guarantee: every fabric-matrix topology drained at 1, 4, and 8
// workers executes the identical event set — same event, window and
// boundary counts, same per-host delivery counters, and (with a wire
// tap on every shard) the identical per-shard wire-event stream. The
// digest over all of it is pinned per case, so a change to the
// boundary path that alters any shard's wire stream fails here even
// when it does so at every worker count alike.
func TestFabricDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range fabricMatrix {
		t.Run(tc.name, func(t *testing.T) {
			ref := runStar(t, 1, tc.starCase, true)
			if ref.stats.Events == 0 || ref.vals[0] == 0 {
				t.Fatalf("reference run did nothing: events=%d echoed=%d", ref.stats.Events, ref.vals[0])
			}
			if got := ref.digest(); got != tc.digest {
				t.Errorf("digest %s, pinned %s", got, tc.digest)
			}
			for _, workers := range []int{4, 8} {
				got := runStar(t, workers, tc.starCase, true)
				if d := got.digest(); d != ref.digest() {
					t.Errorf("workers=%d: digest %s, sequential %s", workers, d, ref.digest())
				}
				if got.stats.Events != ref.stats.Events || got.stats.Windows != ref.stats.Windows || got.stats.Boundary != ref.stats.Boundary {
					t.Errorf("workers=%d: stats %+v, sequential %+v", workers, got.stats, ref.stats)
				}
				for i := range got.vals {
					if got.vals[i] != ref.vals[i] {
						t.Errorf("workers=%d: counter %d = %d, sequential %d", workers, i, got.vals[i], ref.vals[i])
					}
				}
				for shard, want := range ref.prints {
					if got.prints[shard] != want {
						t.Errorf("workers=%d: shard %s wire stream fingerprint %x, sequential %x",
							workers, shard, got.prints[shard], want)
					}
				}
			}
		})
	}
}

// TestFabricCrossShardEcho pins the boundary semantics: a request
// crosses src LAN → hub and back, the echo arrives no earlier than two
// lookahead crossings after the send, and every bot's request is
// answered exactly once on a clean wire.
func TestFabricCrossShardEcho(t *testing.T) {
	vals := runStar(t, 4, starCase{lans: 3, bots: 10}, false).vals
	echoed := vals[0]
	if want := 3 * 10; echoed != want {
		t.Fatalf("hub echoed %d requests, want %d", echoed, want)
	}
	for l, received := range vals[1:] {
		// Each bot hears its own echo plus one gossip frame per peer round.
		if want := 2 * 10; received != want {
			t.Errorf("lan%02d heard %d deliveries, want %d", l, received, want)
		}
	}
}

// TestFabricZeroLookaheadRejected: a zero (or negative) minimum uplink
// latency would break the conservative window protocol, so declaring
// one fails loudly instead of producing silently nondeterministic runs.
func TestFabricZeroLookaheadRejected(t *testing.T) {
	for _, latency := range []time.Duration{0, -time.Millisecond} {
		fab := NewFabric()
		s := fab.MustAddShard("lan")
		seg := s.Network().MustSegment("wifi", time.Microsecond)
		err := s.Uplink(seg, latency)
		if !errors.Is(err, ErrZeroLookahead) {
			t.Fatalf("latency %v: err = %v, want ErrZeroLookahead", latency, err)
		}
	}
}

// TestFabricRejectsDuplicateOwnership: one address attached on two
// shards has no deterministic boundary route, so sealing fails.
func TestFabricRejectsDuplicateOwnership(t *testing.T) {
	fab := NewFabric()
	for _, name := range []string{"a", "b"} {
		s := fab.MustAddShard(name)
		seg := s.Network().MustSegment("wifi", time.Microsecond)
		seg.MustAttach("same-addr", 0, nil)
		if err := s.Uplink(seg, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fab.Run(1); err == nil {
		t.Fatal("fabric sealed with one address owned by two shards")
	}
}

// TestFabricRejectsAddressOnTwoSegments: one address attached to two
// segments of one shard has no deterministic boundary route either, so
// sealing fails on every build and names both shard/segment pairs the
// same way each time. A seal that kept whichever segment a map
// iteration visited last would route the frame differently from build
// to build, which is why the topology is built 50 times.
func TestFabricRejectsAddressOnTwoSegments(t *testing.T) {
	var first string
	for build := 0; build < 50; build++ {
		fab := NewFabric()
		hub := fab.MustAddShard("hub")
		hubSeg := hub.Network().MustSegment("backbone", time.Microsecond)
		sender := hubSeg.MustAttach("sender", 0, nil)
		if err := hub.Uplink(hubSeg, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		lan := fab.MustAddShard("lan")
		for _, name := range []string{"s1", "s2", "s3"} {
			seg := lan.Network().MustSegment(name, time.Microsecond)
			seg.MustAttach("twin", 0, nil)
			if err := lan.Uplink(seg, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		hub.Network().Schedule(0, func() {
			sender.Send(Packet{Dst: "twin", Proto: ProtoRaw, Payload: []byte("which?")})
		})
		_, err := fab.Run(1)
		if err == nil {
			t.Fatalf("build %d: fabric sealed with one address on three segments of one shard", build)
		}
		if build == 0 {
			first = err.Error()
			if !strings.Contains(first, "lan/s1") || !strings.Contains(first, "lan/s2") {
				t.Fatalf("error %q does not name both shard/segment pairs", first)
			}
		} else if err.Error() != first {
			t.Fatalf("build %d: error %q, first build %q", build, err, first)
		}
	}
}

// TestFabricIsolatedShards: a fabric with no uplinks degenerates to
// independent worlds, each drained to quiescence in one parallel shot.
func TestFabricIsolatedShards(t *testing.T) {
	fab := NewFabric()
	fired := make([]int, 3)
	for i := 0; i < 3; i++ {
		s := fab.MustAddShard(fmt.Sprintf("iso%d", i))
		n := i
		s.Network().Schedule(time.Millisecond, func() { fired[n]++ })
	}
	events, err := fab.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if events != 3 {
		t.Fatalf("executed %d events, want 3", events)
	}
	for i, f := range fired {
		if f != 1 {
			t.Errorf("shard %d fired %d times", i, f)
		}
	}
}

// TestFabricUnroutableCounted: frames to addresses no shard owns are
// dropped at the boundary and counted, deterministically.
func TestFabricUnroutableCounted(t *testing.T) {
	fab := NewFabric()
	s := fab.MustAddShard("lan")
	seg := s.Network().MustSegment("wifi", time.Microsecond)
	ifc := seg.MustAttach("bot", 0, nil)
	if err := s.Uplink(seg, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fab.MustAddShard("empty")
	s.Network().Schedule(0, func() {
		ifc.Send(Packet{Dst: "nowhere", Proto: ProtoRaw, Payload: []byte("lost")})
	})
	if _, err := fab.Run(2); err != nil {
		t.Fatal(err)
	}
	if s.Unroutable() != 1 {
		t.Fatalf("unroutable = %d, want 1", s.Unroutable())
	}
}

// TestSegmentAddressIndex guards the O(1) lookup the fleet scale rests
// on: attach rejects duplicates and delivery finds the addressee
// through the index.
func TestSegmentAddressIndex(t *testing.T) {
	n := New()
	seg := n.MustSegment("idx", time.Microsecond)
	got := 0
	seg.MustAttach("a", 0, func(_ time.Duration, _ Packet) { got++ })
	b := seg.MustAttach("b", 0, nil)
	if _, err := seg.Attach("a", 0, nil); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate attach: err = %v, want ErrAddrInUse", err)
	}
	b.Send(Packet{Dst: "a", Proto: ProtoRaw, Payload: []byte("x")})
	n.Run(0)
	if got != 1 {
		t.Fatalf("indexed delivery reached handler %d times, want 1", got)
	}
}
