package tcpsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/netsim"
)

// lab builds a two-host network with a client and server stack and runs
// the handshake-capable event loop on demand.
type lab struct {
	net    *netsim.Network
	seg    *netsim.Segment
	client *Stack
	server *Stack
}

func newLab(t *testing.T, opts ...StackOption) *lab {
	t.Helper()
	n := netsim.New()
	seg := n.MustSegment("wifi", time.Millisecond)
	cIfc := seg.MustAttach("client", 0, nil)
	sIfc := seg.MustAttach("server", 5*time.Millisecond, nil)
	return &lab{
		net:    n,
		seg:    seg,
		client: NewStack(n, cIfc, append([]StackOption{WithSeed(7)}, opts...)...),
		server: NewStack(n, sIfc, append([]StackOption{WithSeed(11)}, opts...)...),
	}
}

// withMSS cuts the stack's segments at mss payload bytes instead of
// DefaultMSS.
func withMSS(mss int) StackOption {
	return func(s *Stack) { s.mss = mss }
}

// withISN pins the initial send sequence number of every connection
// the stack opens or accepts, instead of drawing it from the seeded
// RNG.
func withISN(isn uint32) StackOption {
	return func(s *Stack) { s.isnOverride = &isn }
}

// funcs adapts test closures to Handler; a nil closure ignores its
// event. A test that wants a connection's data only after some setup
// keeps the adapter and fills data in later.
type funcs struct {
	established func(*Conn)
	data        func(*Conn, []byte)
}

func (f *funcs) Established(c *Conn) {
	if f.established != nil {
		f.established(c)
	}
}

func (f *funcs) Data(c *Conn, b []byte) {
	if f.data != nil {
		f.data(c, b)
	}
}

// accepting returns a listener's accept that hands every inbound
// connection h.
func accepting(h Handler) func(*Conn) Handler {
	return func(*Conn) Handler { return h }
}

// onData is a Handler that only collects data.
func onData(fn func(b []byte)) *funcs {
	return &funcs{data: func(_ *Conn, b []byte) { fn(b) }}
}

func TestHandshakeAndEcho(t *testing.T) {
	l := newLab(t)
	var serverGot, clientGot []byte
	if err := l.server.Listen(80, accepting(&funcs{data: func(c *Conn, b []byte) {
		serverGot = append(serverGot, b...)
		if _, err := c.Write(bytes.ToUpper(b)); err != nil {
			t.Errorf("server write: %v", err)
		}
	}})); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := l.client.Dial("server", 80, &funcs{
		established: func(c *Conn) {
			if _, err := c.Write([]byte("hello")); err != nil {
				t.Errorf("client write: %v", err)
			}
		},
		data: func(_ *Conn, b []byte) { clientGot = append(clientGot, b...) },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)

	if string(serverGot) != "hello" {
		t.Fatalf("server got %q, want hello", serverGot)
	}
	if string(clientGot) != "HELLO" {
		t.Fatalf("client got %q, want HELLO", clientGot)
	}
	if conn.State() != StateEstablished {
		t.Fatalf("client state = %v, want ESTABLISHED", conn.State())
	}
}

func TestLargeTransferSplitsIntoMSS(t *testing.T) {
	l := newLab(t, withMSS(100))
	payload := bytes.Repeat([]byte("x"), 1050)
	var got []byte
	if err := l.server.Listen(80, accepting(onData(func(b []byte) { got = append(got, b...) }))); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := l.client.Dial("server", 80, &funcs{established: func(c *Conn) {
		if _, err := c.Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
	}}); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("server got %d bytes, want %d intact", len(got), len(payload))
	}
}

func TestDialToNonListeningPortIgnored(t *testing.T) {
	l := newLab(t)
	connected := false
	if _, err := l.client.Dial("server", 9999, &funcs{established: func(*Conn) { connected = true }}); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if connected {
		t.Fatal("connected to a non-listening port")
	}
}

// TestCloseDeliversOnClose: the client's FIN closes the server's side
// of the connection, and the server's acknowledgement of it the
// client's, which then refuses writes.
func TestCloseDeliversOnClose(t *testing.T) {
	l := newLab(t)
	var serverConn *Conn
	if err := l.server.Listen(80, func(c *Conn) Handler {
		serverConn = c
		return nil
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	clientConn, err := l.client.Dial("server", 80, &funcs{established: func(c *Conn) {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if serverConn == nil || serverConn.State() != StateClosed {
		t.Fatal("server side not closed by the client's FIN")
	}
	if clientConn.State() != StateClosed {
		t.Fatalf("client state = %v once its FIN is acknowledged, want CLOSED", clientConn.State())
	}
	if _, err := clientConn.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on closed connection: %v, want ErrClosed", err)
	}
}

func TestInjectionFirstWins(t *testing.T) {
	// The eavesdropper observes the client's request and injects a forged
	// response that arrives before the genuine one. Under first-wins the
	// client application must see only the forged bytes, and the genuine
	// response must be counted as duplicate.
	l := newLab(t)
	forged := []byte("FORGED-RESPONSE")
	genuine := []byte("GENUINE-PAYLOAD") // same length: full overlap

	if err := l.server.Listen(80, accepting(&funcs{data: func(c *Conn, _ []byte) {
		if _, err := c.Write(genuine); err != nil {
			t.Errorf("server write: %v", err)
		}
	}})); err != nil {
		t.Fatalf("Listen: %v", err)
	}

	var sniffer *Sniffer
	sniffer = NewSniffer(l.seg, 0, func(o Observed) {
		// React to the client's HTTP-like request (data toward port 80).
		if o.Seg.DstPort == 80 && len(o.Seg.Payload) > 0 {
			sniffer.Inject(o, forged)
		}
	})

	var got []byte
	clientConn, err := l.client.Dial("server", 80, &funcs{
		established: func(c *Conn) {
			if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
				t.Errorf("client write: %v", err)
			}
		},
		data: func(_ *Conn, b []byte) { got = append(got, b...) },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)

	if !bytes.Equal(got, forged) {
		t.Fatalf("client got %q, want forged %q", got, forged)
	}
	if clientConn.Stats().DuplicateBytes != len(genuine) {
		t.Fatalf("duplicate bytes = %d, want %d (genuine response discarded)",
			clientConn.Stats().DuplicateBytes, len(genuine))
	}
}

func TestInjectionLastWinsAblation(t *testing.T) {
	// Under last-wins, bytes already delivered to the application cannot
	// be replaced, so injection still sticks when the forged segment is
	// delivered (and drained) first. The last-wins policy only changes the
	// fate of *buffered* (out-of-order) overlaps. Verify the ablation
	// machinery: an out-of-order overlap is overwritten.
	l := newLab(t, WithReassembly(LastWins))
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := &funcs{}
	conn, err := l.client.Dial("server", 80, h)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if conn == nil || conn.State() != StateEstablished {
		t.Fatal("handshake failed")
	}
	// Deliver an out-of-order byte at rcvNxt+1, twice with different
	// content; under last-wins the second wins once the gap fills.
	base := conn.rcvNxt
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: SeqAdd(base, 1), Flags: FlagACK, Payload: []byte("A")})
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: SeqAdd(base, 1), Flags: FlagACK, Payload: []byte("B")})
	var got []byte
	h.data = func(_ *Conn, b []byte) { got = append(got, b...) }
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: base, Flags: FlagACK, Payload: []byte("x")})
	if string(got) != "xB" {
		t.Fatalf("got %q, want xB (last-wins overwrite)", got)
	}
	if conn.Stats().OverwrittenByte != 1 {
		t.Fatalf("overwritten = %d, want 1", conn.Stats().OverwrittenByte)
	}
}

func TestFirstWinsBufferedOverlap(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := &funcs{}
	conn, err := l.client.Dial("server", 80, h)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	base := conn.rcvNxt
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: SeqAdd(base, 1), Flags: FlagACK, Payload: []byte("A")})
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: SeqAdd(base, 1), Flags: FlagACK, Payload: []byte("B")})
	var got []byte
	h.data = func(_ *Conn, b []byte) { got = append(got, b...) }
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: base, Flags: FlagACK, Payload: []byte("x")})
	if string(got) != "xA" {
		t.Fatalf("got %q, want xA (first-wins keeps original)", got)
	}
}

func TestOutOfWindowSegmentRejected(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := &funcs{}
	conn, err := l.client.Dial("server", 80, h)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	delivered := false
	h.data = func(*Conn, []byte) { delivered = true }
	// A blind off-path attacker who guesses a wildly wrong sequence
	// number is rejected by the window check.
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: SeqAdd(conn.rcvNxt, -200000), Flags: FlagACK, Payload: []byte("evil")})
	if delivered {
		t.Fatal("out-of-window payload delivered")
	}
	if conn.Stats().OutOfWindow != 1 {
		t.Fatalf("out-of-window count = %d, want 1", conn.Stats().OutOfWindow)
	}
}

func TestWrongFourTupleIgnored(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := &funcs{}
	conn, err := l.client.Dial("server", 80, h)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	delivered := false
	h.data = func(*Conn, []byte) { delivered = true }
	// Inject a data packet claiming to be from a different source port:
	// no connection matches, so the stack drops it.
	tap := l.seg.AttachTap(0, nil)
	seg := Segment{SrcPort: 81, DstPort: conn.key.localPort, Seq: conn.rcvNxt,
		Flags: FlagACK | FlagPSH, Payload: []byte("evil")}
	tap.Inject(netsim.Packet{Src: "server", Dst: "client", Proto: netsim.ProtoTCP, Payload: seg.Marshal()})
	l.net.Run(0)
	if delivered {
		t.Fatal("segment with wrong 4-tuple delivered")
	}
}

func TestRSTTearsDownConnection(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := l.client.Dial("server", 80, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	conn.handle(Segment{SrcPort: conn.key.remotePort, DstPort: conn.key.localPort,
		Seq: conn.rcvNxt, Flags: FlagRST})
	if conn.State() != StateClosed {
		t.Fatalf("state = %v after RST, want CLOSED", conn.State())
	}
}

func TestSegmentMarshalRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) bool {
		in := Segment{
			SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack,
			Flags:  Flags(flags) & (FlagSYN | FlagACK | FlagFIN | FlagRST | FlagPSH),
			Window: window, Payload: payload,
		}
		out, err := ParseSegment(in.Marshal())
		if err != nil {
			return false
		}
		return out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Seq == in.Seq && out.Ack == in.Ack && out.Flags == in.Flags &&
			out.Window == in.Window && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseShortSegment(t *testing.T) {
	if _, err := ParseSegment(make([]byte, 5)); err == nil {
		t.Fatal("short segment parsed without error")
	}
}

func TestSeqArithmeticProperties(t *testing.T) {
	// SeqLT is a strict order on windows < 2^31 and respects wraparound.
	f := func(a uint32, n uint16) bool {
		if n == 0 {
			return !SeqLT(a, a) && SeqLEQ(a, a)
		}
		b := SeqAdd(a, int(n))
		return SeqLT(a, b) && !SeqLT(b, a) && SeqDiff(a, b) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqWraparound(t *testing.T) {
	near := uint32(0xFFFFFFF0)
	after := SeqAdd(near, 0x20)
	if !SeqLT(near, after) {
		t.Fatal("SeqLT fails across wraparound")
	}
	if SeqDiff(near, after) != 0x20 {
		t.Fatalf("SeqDiff = %d, want 32", SeqDiff(near, after))
	}
	if !InWindow(after, near, 0x40) {
		t.Fatal("InWindow fails across wraparound")
	}
}

func TestInWindow(t *testing.T) {
	cases := []struct {
		seq, lo uint32
		size    int
		want    bool
	}{
		{100, 100, 10, true},
		{109, 100, 10, true},
		{110, 100, 10, false},
		{99, 100, 10, false},
	}
	for _, c := range cases {
		if got := InWindow(c.seq, c.lo, c.size); got != c.want {
			t.Errorf("InWindow(%d,%d,%d) = %v, want %v", c.seq, c.lo, c.size, got, c.want)
		}
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("flags string = %q", s)
	}
	if s := Flags(0).String(); s != "none" {
		t.Fatalf("zero flags string = %q", s)
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := l.server.Listen(80, accepting(nil)); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

// spoofedFrame is one segment Sniffer.Inject put on the wire.
type spoofedFrame struct {
	src, dst netsim.Addr
	seg      Segment
}

// injectReply answers req with payload through Sniffer.Inject and
// returns the segments that reach the wire, in order.
func injectReply(t *testing.T, req Observed, payload []byte) []spoofedFrame {
	t.Helper()
	n := netsim.New()
	wire := n.MustSegment("wifi", 0)
	sniffer := NewSniffer(wire, 0, nil)
	var got []spoofedFrame
	wire.AttachTap(0, func(_ time.Duration, pkt netsim.Packet) {
		seg, err := ParseSegment(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seg.Payload = bytes.Clone(seg.Payload) // the frame is pooled
		got = append(got, spoofedFrame{pkt.Src, pkt.Dst, seg})
	})
	sniffer.Inject(req, payload)
	n.Run(0)
	return got
}

// TestSpoofReplyFields: Inject answers an observed request as its
// server would: from the server to the client, the request's ports
// swapped, starting at the client's acknowledgement and acknowledging
// the whole request.
func TestSpoofReplyFields(t *testing.T) {
	req := Observed{
		Src: "client", Dst: "server",
		Seg: Segment{SrcPort: 50000, DstPort: 80, Seq: 1000, Ack: 555,
			Payload: []byte("GET /")},
	}
	got := injectReply(t, req, []byte("HTTP/1.1 200 OK"))
	if len(got) != 1 {
		t.Fatalf("%d segments injected, want 1", len(got))
	}
	f := got[0]
	if f.src != "server" || f.dst != "client" {
		t.Fatalf("addressing = %s->%s", f.src, f.dst)
	}
	if f.seg.SrcPort != 80 || f.seg.DstPort != 50000 {
		t.Fatalf("ports = %d->%d", f.seg.SrcPort, f.seg.DstPort)
	}
	if f.seg.Seq != 555 {
		t.Fatalf("seq = %d, want client's ack 555", f.seg.Seq)
	}
	if f.seg.Ack != 1005 {
		t.Fatalf("ack = %d, want 1005 (request fully acked)", f.seg.Ack)
	}
	if f.seg.Flags != FlagACK|FlagPSH {
		t.Fatalf("flags = %v, want ACK|PSH", f.seg.Flags)
	}
	if string(f.seg.Payload) != "HTTP/1.1 200 OK" {
		t.Fatalf("payload = %q", f.seg.Payload)
	}
}

// TestSpoofReplyAtOffset: a payload longer than two MSS is cut into
// DefaultMSS pieces, each numbered from the client's acknowledgement
// plus its offset and carrying the same addressing, ports, ack and
// flags as the first.
func TestSpoofReplyAtOffset(t *testing.T) {
	req := Observed{
		Src: "client", Dst: "server",
		Seg: Segment{SrcPort: 50000, DstPort: 80, Seq: 1000, Ack: 555,
			Payload: []byte("GET /")},
	}
	payload := make([]byte, 2*DefaultMSS+100)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := injectReply(t, req, payload)
	if len(got) != 3 {
		t.Fatalf("%d segments injected, want 3", len(got))
	}
	var joined []byte
	for i, f := range got {
		if f.src != "server" || f.dst != "client" {
			t.Fatalf("segment %d addressing = %s->%s", i, f.src, f.dst)
		}
		if f.seg.SrcPort != 80 || f.seg.DstPort != 50000 {
			t.Fatalf("segment %d ports = %d->%d", i, f.seg.SrcPort, f.seg.DstPort)
		}
		if want := uint32(555 + i*DefaultMSS); f.seg.Seq != want {
			t.Fatalf("segment %d seq = %d, want %d (client's ack 555 + offset)", i, f.seg.Seq, want)
		}
		if f.seg.Ack != 1005 {
			t.Fatalf("segment %d ack = %d, want 1005 (request fully acked)", i, f.seg.Ack)
		}
		if f.seg.Flags != FlagACK|FlagPSH {
			t.Fatalf("segment %d flags = %v, want ACK|PSH", i, f.seg.Flags)
		}
		if want := min(DefaultMSS, len(payload)-len(joined)); len(f.seg.Payload) != want {
			t.Fatalf("segment %d carries %d bytes, want %d", i, len(f.seg.Payload), want)
		}
		joined = append(joined, f.seg.Payload...)
	}
	if !bytes.Equal(joined, payload) {
		t.Fatal("injected segments do not carry the payload in order")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateSynSent: "SYN_SENT", StateSynReceived: "SYN_RECEIVED",
		StateEstablished: "ESTABLISHED", StateFinWait: "FIN_WAIT",
		StateClosed: "CLOSED", State(0): "UNKNOWN",
	} {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if FirstWins.String() != "first-wins" || LastWins.String() != "last-wins" {
		t.Fatal("policy strings wrong")
	}
	if ReassemblyPolicy(0).String() != "unknown" {
		t.Fatal("zero policy string wrong")
	}
}

// TestSegmentMarshalAllocs locks the wire codec at its one-allocation
// floor. Skipped in -short mode: the CI race detector perturbs counts.
func TestSegmentMarshalAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	seg := Segment{SrcPort: 50000, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: FlagACK | FlagPSH, Payload: bytes.Repeat([]byte("p"), 1460)}
	got := testing.AllocsPerRun(500, func() {
		if len(seg.Marshal()) == 0 {
			t.Fatal("empty marshal")
		}
	})
	if got > 1 {
		t.Errorf("Segment.Marshal allocs/op = %.0f, want 1", got)
	}
}

// TestSegmentRoundTripAllocs locks the steady-state transport data plane:
// a full data segment marshalled into a pooled netsim frame, delivered,
// ingested in order, and acknowledged — with zero allocations per round
// trip. Skipped in -short mode: the CI race detector perturbs counts.
func TestSegmentRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	net := netsim.New()
	seg := net.MustSegment("lan", time.Millisecond)
	a := NewStack(net, seg.MustAttach("a", 0, nil), WithSeed(1))
	b := NewStack(net, seg.MustAttach("b", 0, nil), WithSeed(2))
	received := 0
	if err := b.Listen(80, accepting(onData(func(data []byte) { received += len(data) }))); err != nil {
		t.Fatal(err)
	}
	conn, err := a.Dial("b", 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if conn == nil || conn.State() != StateEstablished {
		t.Fatal("handshake did not complete")
	}
	payload := bytes.Repeat([]byte("p"), DefaultMSS)
	send := func() {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
	}
	for i := 0; i < 16; i++ {
		send() // warm the frame pool and event slab
	}
	before := received
	allocs := testing.AllocsPerRun(200, send)
	if allocs > 0 {
		t.Errorf("segment round-trip allocs/op = %.1f, want 0", allocs)
	}
	if received <= before {
		t.Fatal("no data delivered during measurement")
	}
}
