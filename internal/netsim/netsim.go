// Package netsim provides a deterministic, discrete-event packet network
// simulator. It models the attacker capability of the Master and Parasite
// paper (§III): hosts exchange packets on shared segments (e.g. a public
// WiFi network) and an eavesdropper attached to a segment observes every
// frame and may inject its own, but can neither block nor modify frames in
// flight.
//
// The simulation is single-threaded and driven by a virtual clock: sending
// a packet schedules delivery events, and Network.Run drains the event
// queue in timestamp order. Equal timestamps are broken by scheduling
// order, which makes every experiment reproducible.
//
// The data plane is allocation-free in steady state: payloads live in
// pooled, ref-counted frame buffers shared by a packet's deliveries
// (copy-on-tap keeps eavesdroppers isolated from receiver mutation), and
// events live in a slab ordered by an index-based 4-ary heap. Payload
// slices handed to a Handler are therefore only valid for the duration of
// the call — a receiver that retains bytes must copy them (Packet.Clone).
//
// One observation hook exists: SetWireTap reports every send, delivery,
// tap delivery, and drop with payload bytes. It is the capture point of
// the deterministic record/replay subsystem (internal/replay), and the
// message-flow figures read their delivered frame sizes from it.
package netsim

import (
	"errors"
	"fmt"
	"time"
)

// Addr identifies an interface on the simulated network. It plays the role
// of an IP address; the simulator does not interpret its contents.
type Addr string

// Protocol tags a packet payload so that multiple stacks can share one
// interface. The simulator itself treats payloads as opaque bytes.
type Protocol int

// Known protocol tags.
const (
	ProtoRaw Protocol = iota + 1
	ProtoTCP
)

// String returns the conventional name of the protocol tag.
func (p Protocol) String() string {
	switch p {
	case ProtoRaw:
		return "raw"
	case ProtoTCP:
		return "tcp"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// Packet is a single frame on a segment.
type Packet struct {
	Src     Addr
	Dst     Addr
	Proto   Protocol
	Payload []byte
}

// Clone returns a deep copy of the packet so that receivers may retain or
// mutate payloads without aliasing the delivery frame's pooled buffer.
func (p Packet) Clone() Packet {
	cp := p
	cp.Payload = make([]byte, len(p.Payload))
	copy(cp.Payload, p.Payload)
	return cp
}

// Handler receives a packet at virtual time now. The payload is only valid
// for the duration of the call: it aliases a pooled frame buffer that is
// recycled once every delivery of the frame has run.
type Handler func(now time.Duration, pkt Packet)

// WireKind classifies a WireEvent on the simulated medium.
type WireKind uint8

// Wire event kinds, in lifecycle order: a frame is sent onto a segment,
// then delivered to its addressee and/or observed by taps — or dropped
// (the addressee is not receiving, or the link's loss model ate it).
// WireDupDeliver marks the extra copy a faulty link's duplication model
// produced, so replay logs show faults explicitly.
const (
	WireSend WireKind = iota + 1
	WireDeliver
	WireTapDeliver
	WireDrop
	WireDupDeliver
)

// String returns the conventional name of the wire-event kind.
func (k WireKind) String() string {
	switch k {
	case WireSend:
		return "send"
	case WireDeliver:
		return "deliver"
	case WireTapDeliver:
		return "tap"
	case WireDrop:
		return "drop"
	case WireDupDeliver:
		return "dup"
	default:
		return fmt.Sprintf("wire(%d)", uint8(k))
	}
}

// WireEvent is one observable event on the simulated medium, reported to
// the network's wire tap (SetWireTap). It carries the payload bytes: the
// record/replay subsystem (internal/replay) encodes the full frame so a
// run can be re-driven from the log alone. Payload aliases pooled frame
// storage and is only valid for the duration of the tap call — a tap
// that retains bytes must copy them.
type WireEvent struct {
	Kind    WireKind
	Time    time.Duration
	Segment string
	Src     Addr
	Dst     Addr
	Proto   Protocol
	Payload []byte
}

// frame is one transmitted payload, shared (ref-counted) by all of the
// packet's scheduled deliveries and recycled through the network's pool
// when the last delivery has run.
type frame struct {
	pkt  Packet // Payload is a capacity-capped view of buf
	buf  []byte // pooled backing storage, full capacity retained
	seg  *Segment
	refs int
}

// eventKind selects what Step does with a slab event.
type eventKind uint8

const (
	evCallback   eventKind = iota // fn() (Network.Schedule)
	evCall                        // call(arg) (Network.ScheduleCall)
	evDeliver                     // unicast delivery of fr to ifc
	evDupDeliver                  // the extra copy a link's duplication model made
	evTap                         // delivery of fr to fr.seg.taps[arg]
	evForward                     // send fr on fr.seg: an arrival from another shard
)

// event is a scheduled callback or frame delivery, stored in the network's
// slab. kind says which of the other fields are set. A tap is stored as
// its index in fr.seg.taps (taps are never detached, so the index stays
// valid); it shares arg with ScheduleCall's argument, inside the padding
// after kind, which keeps the record at 56 bytes.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()      // evCallback
	call func(int32) // evCall
	fr   *frame      // the frame of a delivery, tap or forward event
	ifc  *Interface  // unicast delivery target
	kind eventKind
	arg  int32 // evCall argument, or evTap index
}

// Network owns the virtual clock and the event queue. The zero value is
// not usable; create networks with New.
type Network struct {
	now time.Duration
	seq uint64

	// Event storage: a slab of records plus an index-based 4-ary heap
	// ordered by (at, seq). Popped slots go on the free list, so the
	// steady state schedules without allocating.
	events []event
	free   []int32
	heap   []int32

	framePool  []*frame // released frames, reused first
	frameSpare []frame  // the unused rest of the chunk new frames come from

	segments map[string]*Segment
	wiretap  func(WireEvent)

	// sealedBy is the fabric shard whose owner table was built from
	// this network's interfaces at the fabric's first Run (nil outside
	// a fabric, or before that Run). An address attached later would be
	// unroutable from every other shard, so the topology is frozen.
	sealedBy *Shard

	// dropScratch materializes the payload of a frame sent where nobody
	// is attached to hear it, so the wire tap still records the send.
	dropScratch []byte

	// Frame-pool flow counters: every acquire must eventually be matched
	// by a final release, so acquired-released is the in-flight frame
	// count — zero at quiescence. The soak scenario asserts the balance
	// to catch reference-count leaks under sustained faulted load.
	framesAcquired int
	framesReleased int

	delivered int
	injected  int
}

// New returns an empty network at virtual time zero.
func New() *Network {
	return &Network{segments: make(map[string]*Segment)}
}

// Now reports the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Delivered reports how many packets have been delivered to addressees.
func (n *Network) Delivered() int { return n.delivered }

// SetWireTap installs the wire-event hook used by the record/replay
// subsystem: it observes every send, delivery, tap delivery, and drop on
// the whole network, payload included. The event loop is single-threaded,
// so the hook sees events in exact scheduling order. A nil hook disables
// wire tapping (the steady-state cost is one predicate per event).
func (n *Network) SetWireTap(fn func(WireEvent)) { n.wiretap = fn }

// emitWire reports one wire event to the installed tap.
func (n *Network) emitWire(kind WireKind, seg *Segment, src, dst Addr, proto Protocol, payload []byte) {
	n.wiretap(WireEvent{
		Kind: kind, Time: n.now, Segment: seg.name,
		Src: src, Dst: dst, Proto: proto, Payload: payload,
	})
}

// push stores ev in the slab and sifts its index up the heap.
func (n *Network) push(ev event) {
	n.seq++
	ev.seq = n.seq
	var idx int32
	if k := len(n.free); k > 0 {
		idx = n.free[k-1]
		n.free = n.free[:k-1]
		n.events[idx] = ev
	} else {
		idx = int32(len(n.events))
		n.events = append(n.events, ev)
	}
	n.heap = append(n.heap, idx)
	n.siftUp(len(n.heap) - 1)
}

// before orders heap entries by timestamp, then scheduling order.
func (n *Network) before(a, b int32) bool {
	ea, eb := &n.events[a], &n.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (n *Network) siftUp(i int) {
	h := n.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !n.before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (n *Network) siftDown(i int) {
	h := n.heap
	for {
		first := 4*i + 1
		if first >= len(h) {
			return
		}
		best := first
		last := first + 4
		if last > len(h) {
			last = len(h)
		}
		for c := first + 1; c < last; c++ {
			if n.before(h[c], h[best]) {
				best = c
			}
		}
		if !n.before(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// popMin removes and returns the slab index of the earliest event.
func (n *Network) popMin() int32 {
	h := n.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	n.heap = h[:last]
	if last > 0 {
		n.siftDown(0)
	}
	return root
}

// acquireFrame takes a frame from the pool; the caller fills it with
// load.
func (n *Network) acquireFrame() *frame {
	var fr *frame
	if k := len(n.framePool); k > 0 {
		fr = n.framePool[k-1]
		n.framePool = n.framePool[:k-1]
	} else {
		if len(n.frameSpare) == 0 {
			// With the pool empty every frame made so far is in flight,
			// so this chunk doubles them: a pool grows a logarithmic
			// number of times.
			n.frameSpare = make([]frame, max(n.framesAcquired-n.framesReleased, 1))
		}
		fr = &n.frameSpare[0]
		n.frameSpare = n.frameSpare[1:]
	}
	n.framesAcquired++
	return fr
}

// load sets the frame's packet. buf holds the payload and must have been
// appended to fr.buf[:0], so the pooled storage is reused.
func (fr *frame) load(seg *Segment, src, dst Addr, proto Protocol, buf []byte) {
	fr.buf = buf
	// Hand receivers a capacity-capped view so a stray append cannot
	// scribble on the pooled storage.
	fr.pkt = Packet{Src: src, Dst: dst, Proto: proto, Payload: buf[:len(buf):len(buf)]}
	fr.seg = seg
}

// releaseFrame returns the frame's buffer to the pool once its last
// delivery has run.
func (n *Network) releaseFrame(fr *frame) {
	fr.refs--
	if fr.refs > 0 {
		return
	}
	fr.seg = nil
	n.framesReleased++
	n.framePool = append(n.framePool, fr)
}

// FrameStats reports how many pooled frames have been acquired and how
// many have been fully released since the network was created. The
// difference is the number of frames still in flight — zero whenever
// the event queue is quiescent. The soak scenario uses the balance as
// its frame-pool leak detector.
func (n *Network) FrameStats() (acquired, released int) {
	return n.framesAcquired, n.framesReleased
}

// Schedule runs fn at virtual time now+d. A non-positive d runs fn on the
// next queue drain, still after all events already due.
func (n *Network) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.push(event{at: n.now + d, kind: evCallback, fn: fn})
}

// ScheduleCall runs fn(arg) at virtual time now+d. It orders with every
// other event exactly as Schedule does. One fn can serve every call, with
// arg selecting the work, so a hot timer allocates nothing where a
// Schedule closure would allocate per call.
func (n *Network) ScheduleCall(d time.Duration, fn func(int32), arg int32) {
	if d < 0 {
		d = 0
	}
	n.push(event{at: n.now + d, kind: evCall, call: fn, arg: arg})
}

// Step executes the next pending event and returns false when the queue is
// empty.
func (n *Network) Step() bool {
	if len(n.heap) == 0 {
		return false
	}
	idx := n.popMin()
	ev := n.events[idx]
	n.events[idx] = event{} // drop fn/frame references for reuse
	n.free = append(n.free, idx)
	n.now = ev.at
	switch ev.kind {
	case evCallback:
		ev.fn()
	case evCall:
		ev.call(ev.arg)
	case evDeliver, evDupDeliver:
		n.deliver(ev.fr, ev.ifc, ev.kind == evDupDeliver)
	case evTap:
		n.deliverTap(ev.fr, ev.fr.seg.taps[ev.arg])
	case evForward:
		// The frame the barrier filled is sent on as it is.
		seg := ev.fr.seg
		seg.transmitFrame(0, ev.fr, seg.byAddr[ev.fr.pkt.Dst])
	}
	return true
}

// deliver runs a unicast delivery and releases the frame reference. dup
// marks the extra copy produced by a faulty link's duplication model:
// the receiver gets a genuine duplicate arrival, and the wire tap
// records it distinctly so replay logs pin the fault.
func (n *Network) deliver(fr *frame, target *Interface, dup bool) {
	if !target.dropRx && target.handler != nil {
		n.delivered++
		if n.wiretap != nil {
			kind := WireDeliver
			if dup {
				kind = WireDupDeliver
			}
			n.emitWire(kind, fr.seg, fr.pkt.Src, fr.pkt.Dst, fr.pkt.Proto, fr.pkt.Payload)
		}
		target.handler(n.now, fr.pkt)
	} else if n.wiretap != nil {
		// The addressee exists but is not receiving (left the network or
		// never installed a handler): the frame dies here.
		n.emitWire(WireDrop, fr.seg, fr.pkt.Src, fr.pkt.Dst, fr.pkt.Proto, fr.pkt.Payload)
	}
	n.releaseFrame(fr)
}

// deliverTap runs a promiscuous delivery and releases the frame reference.
func (n *Network) deliverTap(fr *frame, target *Tap) {
	if target.handler != nil {
		if n.wiretap != nil {
			n.emitWire(WireTapDeliver, fr.seg, fr.pkt.Src, fr.pkt.Dst, fr.pkt.Proto, fr.pkt.Payload)
		}
		target.handler(n.now, fr.pkt)
	}
	n.releaseFrame(fr)
}

// Run drains the event queue. Events may schedule further events; Run
// returns only when the network is quiescent or maxEvents callbacks have
// executed (a guard against runaway feedback loops; pass 0 for no limit).
func (n *Network) Run(maxEvents int) int {
	executed := 0
	for n.Step() {
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			break
		}
	}
	return executed
}

// NextEventAt reports the timestamp of the earliest queued event. The
// sharded fabric uses it to pick the next conservative time window, so
// idle stretches of virtual time are skipped instead of spun through.
func (n *Network) NextEventAt() (time.Duration, bool) {
	if len(n.heap) == 0 {
		return 0, false
	}
	return n.events[n.heap[0]].at, true
}

// RunUntil drains events with timestamps no later than deadline.
func (n *Network) RunUntil(deadline time.Duration) int {
	executed := 0
	for len(n.heap) > 0 && n.events[n.heap[0]].at <= deadline {
		if !n.Step() {
			break
		}
		executed++
	}
	if n.now < deadline {
		n.now = deadline
	}
	return executed
}

// ErrSealed rejects a topology change to a fabric after its first Run:
// the owner table that routes frames between shards is built then.
var ErrSealed = errors.New("netsim: fabric already sealed by Run; build the whole topology first")

// NewSegment creates a broadcast domain (a WiFi network, a LAN, a WAN hop)
// with the given base propagation latency. Segment names must be unique.
func (n *Network) NewSegment(name string, latency time.Duration) (*Segment, error) {
	if n.sealedBy != nil {
		return nil, fmt.Errorf("%w: segment %s on shard %s", ErrSealed, name, n.sealedBy.name)
	}
	if _, dup := n.segments[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate segment %q", name)
	}
	s := &Segment{net: n, name: name, latency: latency, byAddr: make(map[Addr]*Interface)}
	n.segments[name] = s
	return s, nil
}

// MustSegment is NewSegment for program initialisation; it panics on a
// duplicate name.
func (n *Network) MustSegment(name string, latency time.Duration) *Segment {
	s, err := n.NewSegment(name, latency)
	if err != nil {
		panic(err)
	}
	return s
}

// Segment is a broadcast domain. Every attached interface with a matching
// destination address receives unicast frames; taps receive everything.
type Segment struct {
	net     *Network
	name    string
	latency time.Duration
	byAddr  map[Addr]*Interface // address index: attach checks and delivery lookups stay O(1) at fleet scale
	// chunks hold the attached interfaces in attach order; only the
	// last has room left.
	chunks [][]Interface
	taps   []*Tap
	uplink bool // a fabric uplink taps this segment (Shard.Uplink)

	// Fault model (see link.go). faulty caches !profile.Clean() so the
	// perfect-wire fast path stays a single predicate with zero PRNG
	// draws — what keeps clean runs byte-identical to the historical
	// simulator.
	profile    LinkProfile
	faulty     bool
	rng        linkRNG
	busyUntil  time.Duration
	lost       int
	duplicated int
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// ErrAddrInUse is returned when attaching a duplicate address to a segment.
var ErrAddrInUse = errors.New("netsim: address already attached to segment")

// Attach connects an interface with the given address. extraDelay models
// the distance between the station and the access point; the eavesdropper
// typically has a smaller delay than the remote web server, which is what
// lets its spoofed segment win the race (§V).
func (s *Segment) Attach(addr Addr, extraDelay time.Duration, h Handler) (*Interface, error) {
	if sh := s.net.sealedBy; sh != nil {
		return nil, fmt.Errorf("%w: address %s on shard %s", ErrSealed, addr, sh.name)
	}
	if _, dup := s.byAddr[addr]; dup {
		return nil, fmt.Errorf("%w: %s on %s", ErrAddrInUse, addr, s.name)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		// Chunks double as the segment grows, so a fleet-sized segment
		// allocates its interfaces a logarithmic number of times.
		s.chunks = append(s.chunks, make([]Interface, 0, max(len(s.byAddr), 1)))
		last++
	}
	s.chunks[last] = append(s.chunks[last], Interface{seg: s, addr: addr, delay: extraDelay, handler: h})
	ifc := &s.chunks[last][len(s.chunks[last])-1]
	s.byAddr[addr] = ifc
	return ifc, nil
}

// lookup returns the interface attached under addr, or nil.
func (s *Segment) lookup(addr Addr) *Interface { return s.byAddr[addr] }

// MustAttach is Attach for program initialisation; it panics on error.
func (s *Segment) MustAttach(addr Addr, extraDelay time.Duration, h Handler) *Interface {
	ifc, err := s.Attach(addr, extraDelay, h)
	if err != nil {
		panic(err)
	}
	return ifc
}

// AttachTap connects a promiscuous listener: it observes every frame on
// the segment regardless of destination. This is the paper's eavesdropping
// master (§III): it sees TCP source ports and sequence numbers and can
// therefore craft correct spoofed responses.
func (s *Segment) AttachTap(extraDelay time.Duration, h Handler) *Tap {
	t := &Tap{seg: s, delay: extraDelay, handler: h}
	s.taps = append(s.taps, t)
	return t
}

// Interface is an attachment point for a host's protocol stack.
type Interface struct {
	seg     *Segment
	addr    Addr
	delay   time.Duration
	handler Handler
	dropRx  bool
}

// Addr returns the interface address.
func (i *Interface) Addr() Addr { return i.addr }

// SetHandler replaces the receive handler (used when a stack is layered on
// an already-attached interface).
func (i *Interface) SetHandler(h Handler) { i.handler = h }

// SetReceiveDrop silences inbound delivery without detaching, modelling a
// host that left the network but whose address remains configured.
func (i *Interface) SetReceiveDrop(drop bool) { i.dropRx = drop }

// Send transmits a frame. Src is forced to the interface address; spoofed
// frames go out through a Tap (Inject, InjectPayload).
func (i *Interface) Send(pkt Packet) {
	pkt.Src = i.addr
	i.seg.transmit(i.delay, pkt)
}

// SendPayload transmits a frame whose payload is produced by fill, which
// must append the wire bytes to its argument and return the result. The
// bytes land directly in a pooled frame buffer, so hot senders (the TCP
// stack) marshal exactly once with no intermediate allocation.
func (i *Interface) SendPayload(dst Addr, proto Protocol, fill func([]byte) []byte) {
	i.seg.transmitPayload(i.delay, i.addr, dst, proto, fill)
}

// Tap is a promiscuous observer that may also inject spoofed frames.
type Tap struct {
	seg     *Segment
	delay   time.Duration
	handler Handler
}

// Inject transmits a frame with an arbitrary (spoofed) source address.
func (t *Tap) Inject(pkt Packet) {
	t.seg.net.injected++
	t.seg.transmit(t.delay, pkt)
}

// InjectPayload transmits a spoofed frame whose payload is produced by
// fill (see Interface.SendPayload) — the injection fast path of the
// master's TCP spoofing module.
func (t *Tap) InjectPayload(src, dst Addr, proto Protocol, fill func([]byte) []byte) {
	t.seg.net.injected++
	t.seg.transmitPayload(t.delay, src, dst, proto, fill)
}

// Injected reports how many frames were injected network-wide.
func (n *Network) Injected() int { return n.injected }

// transmit schedules delivery of pkt to the addressee and to all taps,
// copying the payload into a pooled frame.
func (s *Segment) transmit(senderDelay time.Duration, pkt Packet) {
	s.transmitPayload(senderDelay, pkt.Src, pkt.Dst, pkt.Proto,
		func(dst []byte) []byte { return append(dst, pkt.Payload...) })
}

// transmitPayload is the shared transmit path: fill writes the payload
// into a pooled frame, which transmitFrame sends.
func (s *Segment) transmitPayload(senderDelay time.Duration, src, dst Addr, proto Protocol, fill func([]byte) []byte) {
	target := s.byAddr[dst]
	if target == nil && len(s.taps) == 0 {
		if s.net.wiretap != nil {
			// Sent onto the wire, but nobody is attached to hear it.
			s.net.dropScratch = fill(s.net.dropScratch[:0])
			s.net.emitWire(WireSend, s, src, dst, proto, s.net.dropScratch)
		}
		return
	}
	fr := s.net.acquireFrame()
	fr.load(s, src, dst, proto, fill(fr.buf[:0]))
	s.transmitFrame(senderDelay, fr, target)
}

// transmitFrame sends a loaded frame, addressed to target (nil when its
// addressee is not attached here), and takes it over: its reference
// count is set here. The unicast delivery reads the frame zero-copy;
// taps observe a copy-on-tap duplicate so a receiver that mutates its
// payload cannot alter what the eavesdropper (or the genuine addressee)
// sees. A fabric uplink's tap reads only frames addressed off the
// segment, which no receiver holds, so when it is the segment's only tap
// and no wire tap records its hearing, it shares the delivered frame.
func (s *Segment) transmitFrame(senderDelay time.Duration, main *frame, target *Interface) {
	pkt := &main.pkt
	if s.net.wiretap != nil {
		s.net.emitWire(WireSend, s, pkt.Src, pkt.Dst, pkt.Proto, pkt.Payload)
	}
	// Fault model: every draw comes from the segment's private PRNG in a
	// fixed order per frame (serialize, loss, else duplication, then
	// jitter+reorder per delivered copy), so the fault sequence is a pure
	// function of (link seed, send order) — never of worker scheduling.
	// A clean segment takes none of these branches and performs zero
	// draws, keeping its wire events byte-identical to a profile-less one.
	deliveries := 0
	if target != nil {
		deliveries = 1
	}
	var ser time.Duration
	if s.faulty {
		ser = s.serialize(len(pkt.Payload), senderDelay)
		if deliveries > 0 {
			if s.profile.Loss > 0 && s.rng.chance(s.profile.Loss) {
				// The addressee never hears the frame; taps (the
				// eavesdropper at the access point) still do. The drop is
				// recorded at send time.
				deliveries = 0
				s.lost++
				if s.net.wiretap != nil {
					s.net.emitWire(WireDrop, s, pkt.Src, pkt.Dst, pkt.Proto, pkt.Payload)
				}
			} else if s.profile.Duplicate > 0 && s.rng.chance(s.profile.Duplicate) {
				deliveries = 2
				s.duplicated++
			}
		}
	}
	if deliveries == 0 && len(s.taps) == 0 {
		// Lost with no eavesdroppers: nothing will ever hold this frame.
		main.refs = 1
		s.net.releaseFrame(main)
		return
	}
	tapFr := main
	uplinkOnly := len(s.taps) == 1 && s.uplink && s.net.wiretap == nil
	if deliveries > 0 && len(s.taps) > 0 && !uplinkOnly {
		main.refs = deliveries
		tapFr = s.net.acquireFrame()
		tapFr.load(s, pkt.Src, pkt.Dst, pkt.Proto, append(tapFr.buf[:0], pkt.Payload...))
		tapFr.refs = len(s.taps)
	} else {
		main.refs = deliveries + len(s.taps)
	}
	base := s.net.now + senderDelay + ser + s.latency
	for copyNo := 0; copyNo < deliveries; copyNo++ {
		extra := time.Duration(0)
		if s.faulty {
			if s.profile.Jitter > 0 {
				extra += s.rng.durationBelow(s.profile.Jitter)
			}
			if s.profile.Reorder > 0 && s.rng.chance(s.profile.Reorder) {
				extra += s.profile.ReorderDelay
			}
		}
		kind := evDeliver
		if copyNo > 0 {
			kind = evDupDeliver
		}
		s.net.push(event{at: base + target.delay + extra, kind: kind, fr: main, ifc: target})
	}
	for i, tap := range s.taps {
		s.net.push(event{at: base + tap.delay, kind: evTap, fr: tapFr, arg: int32(i)})
	}
}
