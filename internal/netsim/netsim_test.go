package netsim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestUnicastDelivery(t *testing.T) {
	n := New()
	seg := n.MustSegment("wifi", time.Millisecond)
	var got []string
	seg.MustAttach("10.0.0.1", 0, func(_ time.Duration, p Packet) {
		got = append(got, string(p.Payload))
	})
	src := seg.MustAttach("10.0.0.2", 0, nil)
	src.Send(Packet{Dst: "10.0.0.1", Proto: ProtoRaw, Payload: []byte("hello")})
	n.Run(0)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v, want [hello]", got)
	}
	if n.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1", n.Delivered())
	}
}

func TestNoDeliveryToWrongAddr(t *testing.T) {
	n := New()
	seg := n.MustSegment("wifi", time.Millisecond)
	delivered := 0
	seg.MustAttach("10.0.0.1", 0, func(_ time.Duration, p Packet) { delivered++ })
	src := seg.MustAttach("10.0.0.2", 0, nil)
	src.Send(Packet{Dst: "10.0.0.99", Payload: []byte("x")})
	n.Run(0)
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
}

func TestTapSeesAllFrames(t *testing.T) {
	n := New()
	seg := n.MustSegment("wifi", time.Millisecond)
	seg.MustAttach("10.0.0.1", 0, func(time.Duration, Packet) {})
	src := seg.MustAttach("10.0.0.2", 0, nil)
	tapped := 0
	seg.AttachTap(0, func(_ time.Duration, p Packet) { tapped++ })
	src.Send(Packet{Dst: "10.0.0.1", Payload: []byte("a")})
	src.Send(Packet{Dst: "10.0.0.99", Payload: []byte("b")}) // no addressee
	n.Run(0)
	if tapped != 2 {
		t.Fatalf("tap saw %d frames, want 2", tapped)
	}
}

func TestTapInjectionRaceWinsWithLowerLatency(t *testing.T) {
	// The eavesdropper (1ms away) must deliver its spoofed frame before
	// the legitimate sender that is 10ms away — the core race of §V.
	n := New()
	seg := n.MustSegment("wifi", 0)
	var order []string
	seg.MustAttach("victim", time.Millisecond, func(_ time.Duration, p Packet) {
		order = append(order, string(p.Payload))
	})
	server := seg.MustAttach("server", 10*time.Millisecond, nil)
	tap := seg.AttachTap(time.Millisecond, nil)

	server.Send(Packet{Dst: "victim", Payload: []byte("legit")})
	tap.Inject(Packet{Src: "server", Dst: "victim", Payload: []byte("spoof")})
	n.Run(0)

	if len(order) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(order))
	}
	if order[0] != "spoof" {
		t.Fatalf("first delivery = %q, want spoof", order[0])
	}
	if n.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", n.Injected())
	}
}

func TestSpoofedSourcePreserved(t *testing.T) {
	n := New()
	seg := n.MustSegment("wifi", 0)
	var src Addr
	seg.MustAttach("victim", 0, func(_ time.Duration, p Packet) { src = p.Src })
	tap := seg.AttachTap(0, nil)
	tap.Inject(Packet{Src: "server", Dst: "victim", Payload: []byte("x")})
	n.Run(0)
	if src != "server" {
		t.Fatalf("src = %q, want server (spoofed)", src)
	}
}

func TestDeterministicOrderingAtEqualTimestamps(t *testing.T) {
	n := New()
	seg := n.MustSegment("lan", 0)
	var order []string
	seg.MustAttach("dst", 0, func(_ time.Duration, p Packet) {
		order = append(order, string(p.Payload))
	})
	src := seg.MustAttach("src", 0, nil)
	for _, s := range []string{"1", "2", "3", "4"} {
		src.Send(Packet{Dst: "dst", Payload: []byte(s)})
	}
	n.Run(0)
	want := "1234"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestScheduleOrderingAndClock(t *testing.T) {
	n := New()
	var at []time.Duration
	n.Schedule(3*time.Millisecond, func() { at = append(at, n.Now()) })
	n.Schedule(time.Millisecond, func() { at = append(at, n.Now()) })
	n.Run(0)
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 3*time.Millisecond {
		t.Fatalf("run times = %v", at)
	}

	// ScheduleCall shares Schedule's (time, scheduling order) queue:
	// calls and callbacks at one instant fire in the order they were
	// scheduled, each with its own argument, and a negative delay runs
	// at the current instant.
	var order []int32
	call := func(arg int32) { order = append(order, arg) }
	n.ScheduleCall(2*time.Millisecond, call, 1)
	n.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	n.ScheduleCall(2*time.Millisecond, call, 3)
	n.ScheduleCall(time.Millisecond, call, 0)
	n.ScheduleCall(-time.Millisecond, call, -1)
	n.Run(0)
	if want := []int32{-1, 0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("firing order = %v, want %v", order, want)
	}
	if n.Now() != 5*time.Millisecond {
		t.Fatalf("now = %v, want 5ms", n.Now())
	}
}

// TestEventRecordSize pins the slab record at 56 bytes on 64-bit
// platforms: the fleet's event slab is most of its live heap, and a
// 64-byte record measured 0.7 MB more at 10⁵ bots.
func TestEventRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Fatalf("event is %d bytes, want 56", got)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	n := New()
	fired := false
	n.Schedule(10*time.Millisecond, func() { fired = true })
	n.RunUntil(5 * time.Millisecond)
	if fired {
		t.Fatal("event at 10ms fired before deadline 5ms")
	}
	if n.Now() != 5*time.Millisecond {
		t.Fatalf("now = %v, want 5ms", n.Now())
	}
	n.RunUntil(20 * time.Millisecond)
	if !fired {
		t.Fatal("event did not fire by 20ms")
	}
}

func TestRunMaxEventsGuard(t *testing.T) {
	n := New()
	var loop func()
	count := 0
	loop = func() {
		count++
		n.Schedule(time.Millisecond, loop)
	}
	n.Schedule(0, loop)
	executed := n.Run(50)
	if executed != 50 {
		t.Fatalf("executed = %d, want 50 (guard)", executed)
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := New()
	seg := n.MustSegment("lan", 0)
	seg.MustAttach("a", 0, nil)
	if _, err := seg.Attach("a", 0, nil); err == nil {
		t.Fatal("duplicate attach succeeded, want error")
	}
}

func TestDuplicateSegmentRejected(t *testing.T) {
	n := New()
	n.MustSegment("lan", 0)
	if _, err := n.NewSegment("lan", 0); err == nil {
		t.Fatal("duplicate segment succeeded, want error")
	}
}

func TestWireTapEvents(t *testing.T) {
	n := New()
	seg := n.MustSegment("wifi", 0)
	seg.MustAttach("dst", 0, func(time.Duration, Packet) {})
	seg.AttachTap(0, func(time.Duration, Packet) {})
	src := seg.MustAttach("src", 0, nil)
	kinds := map[WireKind]int{}
	n.SetWireTap(func(e WireEvent) {
		kinds[e.Kind]++
		if len(e.Payload) != 3 || e.Proto != ProtoTCP || e.Segment != "wifi" {
			t.Errorf("bad wire event: %+v", e)
		}
	})
	src.Send(Packet{Dst: "dst", Proto: ProtoTCP, Payload: []byte("abc")})
	n.Run(0)
	if kinds[WireDeliver] != 1 || kinds[WireTapDeliver] != 1 {
		t.Fatalf("wire events = %v, want one deliver and one tap", kinds)
	}
}

func TestPacketCloneIndependence(t *testing.T) {
	p := Packet{Src: "a", Dst: "b", Payload: []byte("abc")}
	c := p.Clone()
	c.Payload[0] = 'X'
	if p.Payload[0] != 'a' {
		t.Fatal("Clone aliases the original payload")
	}
}

func TestPayloadIsolationBetweenReceivers(t *testing.T) {
	// A receiver that mutates its payload must not affect the tap's copy.
	n := New()
	seg := n.MustSegment("wifi", 0)
	seg.MustAttach("dst", 0, func(_ time.Duration, p Packet) { p.Payload[0] = 'X' })
	var tapSaw byte
	seg.AttachTap(time.Millisecond, func(_ time.Duration, p Packet) { tapSaw = p.Payload[0] })
	src := seg.MustAttach("src", 0, nil)
	src.Send(Packet{Dst: "dst", Payload: []byte("abc")})
	n.Run(0)
	if tapSaw != 'a' {
		t.Fatalf("tap saw %q, want 'a' (payload aliased)", tapSaw)
	}
}

func TestQuickDeliveryLatency(t *testing.T) {
	// Property: delivery time equals senderDelay + segment latency +
	// receiverDelay for any non-negative delays.
	f := func(sd, sl, rd uint16) bool {
		n := New()
		segLat := time.Duration(sl) * time.Microsecond
		seg := n.MustSegment("s", segLat)
		var deliveredAt time.Duration = -1
		seg.MustAttach("dst", time.Duration(rd)*time.Microsecond,
			func(now time.Duration, _ Packet) { deliveredAt = now })
		src := seg.MustAttach("src", time.Duration(sd)*time.Microsecond, nil)
		src.Send(Packet{Dst: "dst"})
		n.Run(0)
		want := time.Duration(sd)*time.Microsecond + segLat + time.Duration(rd)*time.Microsecond
		return deliveredAt == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolString(t *testing.T) {
	cases := []struct {
		p    Protocol
		want string
	}{
		{ProtoRaw, "raw"},
		{ProtoTCP, "tcp"},
		{Protocol(42), "proto(42)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestEmptyPayloadCloneDoesNotAlias(t *testing.T) {
	// A zero-length payload carved from a larger buffer must not leak
	// capacity into the clone: appending to the clone may never scribble
	// on the original backing array.
	backing := []byte("secret")
	p := Packet{Src: "a", Dst: "b", Payload: backing[:0]}
	c := p.Clone()
	c.Payload = append(c.Payload, 'X')
	if backing[0] != 's' {
		t.Fatal("Clone of an empty payload aliases the original backing array")
	}
}

func TestEmptyFrameInjectionStillTapped(t *testing.T) {
	// Zero-length frames (bare ACK-style probes) must still be delivered
	// and reported to the wire tap — the pooled frame path must not
	// special-case them away.
	n := New()
	seg := n.MustSegment("wifi", 0)
	delivered := 0
	seg.MustAttach("dst", 0, func(_ time.Duration, p Packet) {
		delivered++
		if len(p.Payload) != 0 {
			t.Errorf("payload = %q, want empty", p.Payload)
		}
	})
	tapped := 0
	seg.AttachTap(0, func(time.Duration, Packet) { tapped++ })
	kinds := map[WireKind]int{}
	n.SetWireTap(func(e WireEvent) {
		kinds[e.Kind]++
		if len(e.Payload) != 0 {
			t.Errorf("wire payload = %q, want empty", e.Payload)
		}
	})
	tap := seg.AttachTap(0, nil)
	tap.Inject(Packet{Src: "ghost", Dst: "dst", Proto: ProtoTCP})
	n.Run(0)
	if delivered != 1 || tapped != 1 {
		t.Fatalf("delivered=%d tapped=%d, want 1/1", delivered, tapped)
	}
	if kinds[WireDeliver] != 1 || kinds[WireTapDeliver] != 1 {
		t.Fatalf("wire events = %v, want one deliver and one tap", kinds)
	}
}

func TestTapCopyIsolatedFromUnicastMutation(t *testing.T) {
	// Copy-on-tap: the tap's view must survive even when the unicast
	// receiver runs first and mutates its (zero-copy) payload. A fabric
	// uplink on the segment shares the delivered frame only when nothing
	// else reads it, so the guarantee holds beside one too, and the wire
	// tap's record of the uplink's hearing keeps the sent bytes.
	for _, c := range []struct {
		name              string
		tap, uplink, wire bool
	}{
		{"tap", true, false, false},
		{"tap+uplink", true, true, false},
		{"uplink+wire", false, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fab := NewFabric()
			sh := fab.MustAddShard("lan")
			n := sh.Network()
			seg := n.MustSegment("wifi", 0)
			seg.MustAttach("dst", 0, func(_ time.Duration, p Packet) { p.Payload[0] = 'X' })
			var tapSaw []byte
			tapped := 0
			if c.tap {
				seg.AttachTap(time.Millisecond, func(_ time.Duration, p Packet) {
					tapSaw = append(tapSaw[:0], p.Payload...)
					tapped++
				})
			}
			src := seg.MustAttach("src", 0, nil)
			if c.uplink {
				if err := sh.Uplink(seg, time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			var wireSaw []string
			if c.wire {
				n.SetWireTap(func(e WireEvent) {
					if e.Kind == WireTapDeliver {
						wireSaw = append(wireSaw, string(e.Payload))
					}
				})
			}
			for i := 0; i < 3; i++ { // repeat so pooled frames get reused
				src.Send(Packet{Dst: "dst", Payload: []byte("abc")})
				if _, err := fab.Run(1); err != nil {
					t.Fatal(err)
				}
				if c.tap && (tapped != i+1 || string(tapSaw) != "abc") {
					t.Fatalf("round %d: tap heard %d frames, the last %q; want %d, abc", i, tapped, tapSaw, i+1)
				}
			}
			if c.wire && len(wireSaw) != 3 {
				t.Fatalf("wire tap recorded %d tap deliveries, want 3", len(wireSaw))
			}
			for i, p := range wireSaw {
				if p != "abc" {
					t.Fatalf("wire tap delivery %d recorded %q, want abc", i, p)
				}
			}
			if acq, rel := n.FrameStats(); acq != rel {
				t.Fatalf("frame pool unbalanced: acquired=%d released=%d", acq, rel)
			}
		})
	}
}

// TestDeliveryAllocs locks the steady-state data plane at zero
// allocations per delivered frame: pooled frames, slab events, no
// closures on the delivery path. Skipped in -short mode: the CI race
// detector perturbs counts.
func TestDeliveryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	n := New()
	seg := n.MustSegment("wifi", time.Millisecond)
	got := 0
	seg.MustAttach("dst", 0, func(_ time.Duration, p Packet) { got += len(p.Payload) })
	seg.AttachTap(0, func(_ time.Duration, p Packet) { got += len(p.Payload) })
	src := seg.MustAttach("src", 0, nil)
	payload := make([]byte, 1460)
	send := func() {
		src.Send(Packet{Dst: "dst", Proto: ProtoTCP, Payload: payload})
		n.Run(0)
	}
	for i := 0; i < 16; i++ {
		send() // warm the frame pool and event slab
	}
	allocs := testing.AllocsPerRun(500, send)
	if allocs > 0 {
		t.Errorf("netsim delivery allocs/op = %.1f, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("no payload delivered")
	}

	// ScheduleCall: one func serves every call, so a timer that
	// selects its work by argument allocates nothing either.
	calls := 0
	tick := func(arg int32) { calls += int(arg) }
	schedule := func() {
		n.ScheduleCall(time.Millisecond, tick, 1)
		n.ScheduleCall(2*time.Millisecond, tick, 2)
		n.Run(0)
	}
	for i := 0; i < 16; i++ {
		schedule()
	}
	if allocs := testing.AllocsPerRun(500, schedule); allocs > 0 {
		t.Errorf("ScheduleCall allocs/op = %.1f, want 0", allocs)
	}
	if calls == 0 {
		t.Fatal("no call ran")
	}
}
