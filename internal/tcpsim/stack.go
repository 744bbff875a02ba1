package tcpsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"masterparasite/internal/netsim"
)

// ReassemblyPolicy selects how overlapping segment data is resolved.
type ReassemblyPolicy int

// Reassembly policies. Real stacks behave as FirstWins for fully duplicate
// data, which is the property TCP injection relies on. LastWins exists for
// the ablation benchmark showing the attack would collapse without it.
const (
	FirstWins ReassemblyPolicy = iota + 1
	LastWins
)

// String names the policy.
func (p ReassemblyPolicy) String() string {
	switch p {
	case FirstWins:
		return "first-wins"
	case LastWins:
		return "last-wins"
	default:
		return "unknown"
	}
}

// State is a TCP connection state.
type State int

// Connection states (subset of RFC 793 sufficient for the simulation).
const (
	StateSynSent State = iota + 1
	StateSynReceived
	StateEstablished
	StateFinWait
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateClosed:
		return "CLOSED"
	default:
		return "UNKNOWN"
	}
}

// Defaults for stack tuning.
const (
	DefaultMSS    = 1460
	DefaultWindow = 65535
)

// StackOption configures a Stack.
type StackOption func(*Stack)

// WithReassembly sets the overlap resolution policy.
func WithReassembly(p ReassemblyPolicy) StackOption {
	return func(s *Stack) { s.policy = p }
}

// WithSeed seeds ISN generation, keeping runs reproducible. A stack
// given no seed draws its ISNs from seed 1.
func WithSeed(seed int64) StackOption {
	return func(s *Stack) { s.rng = rand.New(rand.NewSource(seed)) }
}

// Handler receives one connection's events: Dial takes one, and a
// listener's accept returns one for each inbound connection; a nil
// Handler ignores them. Both methods run inside the netsim event loop.
// A handler is typically the owner's per-connection state itself, so a
// connection costs its owner one allocation instead of a closure per
// callback.
type Handler interface {
	// Established runs once, when the three-way handshake completes.
	Established(c *Conn)
	// Data delivers newly contiguous payload bytes, in order. b is only
	// valid during the call: it aliases a pooled wire frame or the
	// connection's reassembly scratch, so a handler that keeps bytes
	// copies them.
	Data(c *Conn, b []byte)
}

// Stack is one host's transport layer bound to a netsim interface.
type Stack struct {
	net    *netsim.Network
	ifc    *netsim.Interface
	policy ReassemblyPolicy
	rng    *rand.Rand

	// Retransmission (see retransmit.go). Off by default: the
	// perfect-wire experiments were recorded without it and their wire
	// bytes are pinned by golden and fingerprint tests.
	retransmit bool

	// mss is DefaultMSS and isnOverride nil, except where tcpsim's own
	// tests cut smaller segments or pin every ISN (the soak starts just
	// below 2^32 so its stream crosses the sequence wrap).
	mss         int
	isnOverride *uint32

	listeners map[uint16]func(*Conn) Handler
	conns     map[connKey]*Conn
	nextPort  uint16
}

type connKey struct {
	remoteAddr netsim.Addr
	remotePort uint16
	localPort  uint16
}

// NewStack layers a transport on the interface, replacing its receive
// handler.
func NewStack(network *netsim.Network, ifc *netsim.Interface, opts ...StackOption) *Stack {
	s := &Stack{
		net:       network,
		ifc:       ifc,
		policy:    FirstWins,
		mss:       DefaultMSS,
		listeners: make(map[uint16]func(*Conn) Handler),
		conns:     make(map[connKey]*Conn),
		nextPort:  49152,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	ifc.SetHandler(func(now time.Duration, pkt netsim.Packet) { s.receive(now, pkt) })
	return s
}

// ErrPortInUse reports a duplicate listener.
var ErrPortInUse = errors.New("tcpsim: port already listening")

// Listen admits inbound connections on port. accept runs when a SYN
// opens a connection and returns the Handler of its events.
func (s *Stack) Listen(port uint16, accept func(*Conn) Handler) error {
	if _, dup := s.listeners[port]; dup {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	s.listeners[port] = accept
	return nil
}

// Dial opens a connection to dst:dstPort whose events go to h:
// Established when the handshake completes, then Data as bytes arrive.
func (s *Stack) Dial(dst netsim.Addr, dstPort uint16, h Handler) (*Conn, error) {
	localPort := s.allocPort()
	key := connKey{remoteAddr: dst, remotePort: dstPort, localPort: localPort}
	if _, dup := s.conns[key]; dup {
		return nil, fmt.Errorf("tcpsim: connection %v exists", key)
	}
	c := &Conn{
		stack: s, key: key,
		state:  StateSynSent,
		sndNxt: s.isn(),
		h:      h,
	}
	c.sndUna = c.sndNxt
	s.conns[key] = c
	c.sendSegment(Segment{Flags: FlagSYN, Seq: c.sndNxt, Window: DefaultWindow})
	c.sndNxt = SeqAdd(c.sndNxt, 1) // SYN consumes one sequence number
	return c, nil
}

func (s *Stack) allocPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort == 0 {
		s.nextPort = 49152
	}
	return p
}

func (s *Stack) isn() uint32 {
	if s.isnOverride != nil {
		return *s.isnOverride
	}
	return s.rng.Uint32()
}

func (s *Stack) receive(_ time.Duration, pkt netsim.Packet) {
	if pkt.Proto != netsim.ProtoTCP {
		return
	}
	seg, err := ParseSegment(pkt.Payload)
	if err != nil {
		return
	}
	key := connKey{remoteAddr: pkt.Src, remotePort: seg.SrcPort, localPort: seg.DstPort}
	if c, ok := s.conns[key]; ok {
		c.handle(seg)
		return
	}
	// New connection? Only a SYN to a listening port is admitted.
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		accept, listening := s.listeners[seg.DstPort]
		if !listening {
			return
		}
		c := &Conn{
			stack: s, key: key,
			state:  StateSynReceived,
			sndNxt: s.isn(),
			rcvNxt: SeqAdd(seg.Seq, 1),
		}
		c.h = accept(c)
		c.sndUna = c.sndNxt
		s.conns[key] = c
		c.sendSegment(Segment{
			Flags: FlagSYN | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
			Window: DefaultWindow,
		})
		c.sndNxt = SeqAdd(c.sndNxt, 1)
	}
	// Anything else addressed to an unknown connection is silently
	// dropped — the injection attack depends on *guessing right*, and a
	// wrong 4-tuple gives the attacker nothing.
}

// ConnStats counts per-connection transport events; the injection
// experiments read DuplicateBytes to verify the benign response really was
// discarded.
type ConnStats struct {
	SegmentsIn      int
	SegmentsOut     int
	BytesDelivered  int
	DuplicateBytes  int // bytes discarded by first-wins overlap resolution
	OutOfWindow     int // segments rejected by the window check
	OverwrittenByte int // bytes replaced under last-wins (ablation)
	Retransmits     int // segments re-sent (timeout + fast retransmit)
	Timeouts        int // RTO expiries that actually retransmitted
	FastRetransmits int // retransmits triggered by duplicate ACKs
}

// Conn is one simulated TCP connection endpoint.
type Conn struct {
	stack *Stack
	key   connKey
	state State

	sndNxt uint32
	rcvNxt uint32

	// Out-of-order receive window: byte i of rcvWin (valid when
	// rcvHave[i]) is the payload byte at sequence rcvNxt+i. The arrays
	// are scratch reused across segments — in-order traffic never touches
	// them, and draining slides them down in place.
	rcvWin  []byte
	rcvHave []bool

	// Retransmission state (active only when the stack enables it):
	// sndUna is the oldest unacknowledged sequence number, rtxQ the
	// outstanding sequence-consuming segments in send order, and
	// sndBuf[sndOff:] their payloads, back to back: retransmissions slice
	// from it, and ACKs advance sndOff past what they cover. timerEpoch
	// invalidates scheduled RTO expiries (netsim events cannot be
	// cancelled, so stale epochs fire as no-ops); onTimer is onTimeout,
	// bound once so that arming the timer allocates nothing.
	sndUna     uint32
	rtxQ       []rtxSeg
	sndBuf     []byte
	sndOff     int
	rtoBackoff uint
	retries    int
	timerEpoch int32
	onTimer    func(epoch int32)
	dupAcks    int

	h Handler

	stats ConnStats
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("tcpsim: connection closed")

// Write queues data for transmission, splitting it into MSS-sized
// segments. It never keeps data: each segment is marshalled straight
// into a pooled netsim frame, and with retransmission on the
// connection copies data into its send buffer, room for all of it made
// at once, so the caller may reuse data as soon as Write returns.
func (c *Conn) Write(data []byte) (int, error) {
	if c.state == StateClosed {
		return 0, ErrClosed
	}
	if c.stack.retransmit {
		c.reserveSend(len(data))
	}
	sent := 0
	for sent < len(data) {
		end := sent + c.stack.mss
		if end > len(data) {
			end = len(data)
		}
		chunk := data[sent:end]
		c.sendSegment(Segment{
			Flags: FlagACK | FlagPSH, Seq: c.sndNxt, Ack: c.rcvNxt,
			Window: DefaultWindow, Payload: chunk,
		})
		c.sndNxt = SeqAdd(c.sndNxt, len(chunk))
		sent = end
	}
	return sent, nil
}

// Close sends FIN and enters FIN_WAIT, which ends when the FIN is
// acknowledged (or on the peer's FIN, an RST or the retry cap). Closing
// a connection that has sent its FIN, or has ended, does nothing.
func (c *Conn) Close() error {
	if c.state == StateFinWait || c.state == StateClosed {
		return nil
	}
	c.sendSegment(Segment{Flags: FlagFIN | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
	c.sndNxt = SeqAdd(c.sndNxt, 1)
	c.state = StateFinWait
	return nil
}

func (c *Conn) teardown() {
	c.state = StateClosed
	delete(c.stack.conns, c.key)
}

func (c *Conn) sendSegment(seg Segment) {
	if c.stack.retransmit {
		if n := seqConsumed(seg); n > 0 {
			c.track(seg, n)
		}
	}
	c.transmitSegment(seg)
}

// transmitSegment puts the segment on the wire without touching the
// retransmission queue — the path retransmits themselves take.
func (c *Conn) transmitSegment(seg Segment) {
	seg.SrcPort = c.key.localPort
	seg.DstPort = c.key.remotePort
	c.stats.SegmentsOut++
	// Marshal directly into the pooled netsim frame: exact size, single
	// append, no intermediate wire buffer.
	c.stack.ifc.SendPayload(c.key.remoteAddr, netsim.ProtoTCP,
		func(dst []byte) []byte { return seg.AppendMarshal(dst) })
}

func (c *Conn) handle(seg Segment) {
	c.stats.SegmentsIn++
	switch c.state {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && seg.Ack == c.sndNxt {
			c.rcvNxt = SeqAdd(seg.Seq, 1)
			c.state = StateEstablished
			if c.stack.retransmit {
				c.processAck(seg.Ack, false) // our SYN is acknowledged
			}
			c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
			if c.h != nil {
				c.h.Established(c)
			}
		}
		return
	case StateSynReceived:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.state = StateEstablished
			if c.stack.retransmit {
				c.processAck(seg.Ack, false) // our SYN-ACK is acknowledged
			}
			if c.h != nil {
				c.h.Established(c)
			}
			// The ACK completing the handshake may carry data.
			if len(seg.Payload) > 0 {
				c.ingest(seg)
			}
		}
		return
	case StateClosed:
		return
	}

	// Established (or FIN_WAIT) path: the window check is the gate an
	// off-path attacker must pass — the eavesdropper passes it trivially
	// because it has seen the real sequence numbers.
	if c.stack.retransmit && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 {
		// A retransmitted SYN-ACK: our handshake ACK was lost. Re-ACK so
		// the peer leaves SYN_RECEIVED (a pure ACK provokes no reply, so
		// this cannot loop).
		c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
		return
	}
	if len(seg.Payload) > 0 {
		c.ingest(seg)
	}
	if seg.Flags&FlagACK != 0 && c.stack.retransmit {
		c.processAck(seg.Ack, len(seg.Payload) > 0)
	}
	if seg.Flags&FlagFIN != 0 && SeqLEQ(seg.Seq, c.rcvNxt) {
		c.rcvNxt = SeqAdd(c.rcvNxt, 1)
		c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
		c.teardown()
	}
	if seg.Flags&FlagRST != 0 && InWindow(seg.Seq, c.rcvNxt, DefaultWindow) {
		c.teardown()
	}
	// Our FIN is acknowledged, and a peer tears down on the FIN it
	// acknowledges, so nothing more can come. An ACK past sndNxt is of
	// bytes never sent and ends nothing (RFC 9293 §3.10.7.4).
	if c.state == StateFinWait && seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
		c.teardown()
	}
}

// ingest applies the window check and overlap policy, then delivers any
// newly contiguous bytes. The delivered slice is only valid during the
// Handler's Data call: in-order payloads are handed through zero-copy
// from the wire frame, buffered ones from the connection's window
// scratch.
func (c *Conn) ingest(seg Segment) {
	endSeq := SeqAdd(seg.Seq, len(seg.Payload))
	d := SeqDiff(c.rcvNxt, seg.Seq) // segment start relative to rcvNxt
	switch {
	case d >= DefaultWindow || d < -2*DefaultWindow:
		// Too far in the future, or ancient beyond any plausible replay:
		// a blind attacker's guess lands here and is rejected.
		c.stats.OutOfWindow++
		return
	case d < 0 && SeqDiff(c.rcvNxt, endSeq) <= 0:
		// The segment ends at or before rcvNxt: every byte was already
		// delivered. This is the fate of the genuine server response that
		// loses the race against the injected one ("ignored benign
		// response", Fig. 1 and 2). Acknowledge and discard.
		c.stats.DuplicateBytes += len(seg.Payload)
		c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
		return
	}
	if d <= 0 && len(c.rcvHave) == 0 {
		// In-order fast path (possibly with an already-delivered prefix):
		// nothing is buffered, so the fresh suffix is contiguous at rcvNxt
		// and can be delivered without touching the window scratch.
		c.stats.DuplicateBytes += -d
		c.deliver(seg.Payload[-d:])
		return
	}
	if grow := d + len(seg.Payload) - len(c.rcvHave); grow > 0 {
		// Extend the window once, to the segment's end.
		c.rcvWin = append(c.rcvWin, make([]byte, grow)...)
		c.rcvHave = append(c.rcvHave, make([]bool, grow)...)
	}
	for i, b := range seg.Payload {
		off := d + i // position relative to rcvNxt
		if off < 0 {
			// Already delivered to the application: the byte on the wire
			// now is discarded regardless of policy. This is why the
			// genuine response arriving after the injected one is
			// "ignored" in the paper's figures.
			c.stats.DuplicateBytes++
			continue
		}
		if c.rcvHave[off] {
			switch c.stack.policy {
			case LastWins:
				c.rcvWin[off] = b
				c.stats.OverwrittenByte++
			default: // FirstWins
				c.stats.DuplicateBytes++
			}
			continue
		}
		c.rcvWin[off] = b
		c.rcvHave[off] = true
	}
	// Drain the contiguous prefix, then slide the scratch down in place.
	k := 0
	for k < len(c.rcvHave) && c.rcvHave[k] {
		k++
	}
	if k == 0 {
		if c.stack.retransmit {
			// Out-of-order data was buffered but the stream did not
			// advance: re-ACK the byte we are stuck on. The sender counts
			// these duplicate ACKs toward fast retransmit of the gap.
			c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
		}
		return
	}
	c.deliver(c.rcvWin[:k])
	rem := len(c.rcvHave) - k
	copy(c.rcvWin, c.rcvWin[k:])
	copy(c.rcvHave, c.rcvHave[k:])
	c.rcvWin = c.rcvWin[:rem]
	c.rcvHave = c.rcvHave[:rem]
}

// deliver acknowledges and hands a non-empty contiguous payload to the
// connection's Handler.
func (c *Conn) deliver(data []byte) {
	if len(data) == 0 {
		return
	}
	c.rcvNxt = SeqAdd(c.rcvNxt, len(data))
	c.stats.BytesDelivered += len(data)
	c.sendSegment(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: DefaultWindow})
	if c.h != nil {
		c.h.Data(c, data)
	}
}
