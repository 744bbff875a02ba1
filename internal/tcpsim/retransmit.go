package tcpsim

import (
	"slices"
	"time"
)

// Retransmission defaults. The base RTO is comfortably above the
// simulation's worst-case clean round trip (~24ms through the scenario
// web farm), so a clean wire never fires a spurious retransmission and
// enabling the machinery leaves clean-run wire bytes untouched.
const (
	// DefaultRTO is the initial retransmission timeout.
	DefaultRTO = 50 * time.Millisecond
	// MaxRTO caps the exponential backoff.
	MaxRTO = 800 * time.Millisecond
	// DefaultMaxRetries is how many consecutive timeouts a connection
	// survives before giving up and tearing down.
	DefaultMaxRetries = 12
	// DupAckThreshold is the number of duplicate ACKs that triggers a
	// fast retransmit of the oldest unacknowledged segment.
	DupAckThreshold = 3
)

// WithRetransmit enables the retransmission state machine: every
// sequence-consuming segment (SYN, FIN, data) is queued until
// acknowledged, an RTO timer with exponential backoff re-sends the
// oldest outstanding segment, and duplicate ACKs trigger fast
// retransmit. Off by default — the perfect-wire experiments predate it
// and their recorded wire bytes must not change.
func WithRetransmit() StackOption {
	return func(s *Stack) { s.retransmit = true }
}

// rtxSeg is one unacknowledged sequence-consuming segment awaiting
// either an ACK or a retransmission. Its payload bytes sit in the
// connection's send buffer, after those of the segments queued before
// it.
type rtxSeg struct {
	seq    uint32
	flags  Flags
	size   int // payload bytes
	seqLen int // sequence space consumed: size, +1 for SYN/FIN
}

// seqConsumed reports how much sequence space a segment occupies; only
// occupying segments are retransmittable (pure ACKs are not).
func seqConsumed(seg Segment) int {
	n := len(seg.Payload)
	if seg.Flags&(FlagSYN|FlagFIN) != 0 {
		n++
	}
	return n
}

// track queues a sequence-consuming segment for possible retransmission,
// appending its payload to the send buffer (callers may reuse their
// buffers the moment Write returns), and arms the RTO timer if the
// queue was empty.
func (c *Conn) track(seg Segment, seqLen int) {
	c.reserveSend(len(seg.Payload))
	c.sndBuf = append(c.sndBuf, seg.Payload...)
	c.rtxQ = append(c.rtxQ, rtxSeg{seq: seg.Seq, flags: seg.Flags, size: len(seg.Payload), seqLen: seqLen})
	if len(c.rtxQ) == 1 {
		c.rtoBackoff = 0
		c.retries = 0
		c.armTimer()
	}
}

// reserveSend makes room for n more unacknowledged bytes. The buffer
// slides its live bytes down over the acknowledged ones first when that
// makes room, so it grows only past the connection's largest backlog.
func (c *Conn) reserveSend(n int) {
	if c.sndOff > 0 && cap(c.sndBuf)-len(c.sndBuf) < n {
		live := copy(c.sndBuf, c.sndBuf[c.sndOff:])
		c.sndBuf, c.sndOff = c.sndBuf[:live], 0
	}
	c.sndBuf = slices.Grow(c.sndBuf, n)
}

// armTimer schedules the next RTO expiry. Bumping timerEpoch first
// invalidates every previously scheduled expiry: netsim events cannot
// be cancelled, so stale timers fire as no-ops. The epoch rides in the
// event as ScheduleCall's argument.
func (c *Conn) armTimer() {
	c.timerEpoch++
	d := DefaultRTO << c.rtoBackoff
	if d > MaxRTO || d <= 0 {
		d = MaxRTO
	}
	if c.onTimer == nil {
		c.onTimer = c.onTimeout
	}
	c.stack.net.ScheduleCall(d, c.onTimer, c.timerEpoch)
}

// onTimeout is one RTO expiry: retransmit the oldest outstanding
// segment with doubled backoff, or give up past the retry cap.
func (c *Conn) onTimeout(epoch int32) {
	if epoch != c.timerEpoch || c.state == StateClosed || len(c.rtxQ) == 0 {
		return
	}
	c.retries++
	if c.retries > DefaultMaxRetries {
		// The peer is unreachable: local teardown, no FIN (it would not
		// arrive either).
		c.teardown()
		return
	}
	c.stats.Timeouts++
	if c.rtoBackoff < 6 {
		c.rtoBackoff++
	}
	c.retransmitFirst()
	c.armTimer()
}

// retransmitFirst re-sends the oldest unacknowledged segment, stamping
// the current cumulative ACK.
func (c *Conn) retransmitFirst() {
	e := c.rtxQ[0]
	c.stats.Retransmits++
	flags := e.flags
	seg := Segment{Flags: flags, Seq: e.seq, Window: DefaultWindow, Payload: c.sndBuf[c.sndOff : c.sndOff+e.size]}
	if flags&FlagACK != 0 || c.state == StateEstablished || c.state == StateFinWait {
		seg.Ack = c.rcvNxt
	}
	c.transmitSegment(seg)
}

// processAck advances the send window on a cumulative ACK: fully
// acknowledged segments leave the retransmission queue, backoff resets,
// and the timer re-arms for whatever is still outstanding. An exact
// duplicate ACK (no payload, no window progress) counts toward fast
// retransmit — the receiver is telling us which byte it is stuck on.
func (c *Conn) processAck(ack uint32, hasPayload bool) {
	if SeqLT(c.sndUna, ack) && SeqLEQ(ack, c.sndNxt) {
		c.sndUna = ack
		// The queue is in send order, so the acknowledged segments are
		// its prefix, and their payloads the send buffer's.
		acked := 0
		for acked < len(c.rtxQ) && !SeqLT(ack, SeqAdd(c.rtxQ[acked].seq, c.rtxQ[acked].seqLen)) {
			c.sndOff += c.rtxQ[acked].size
			acked++
		}
		c.rtxQ = append(c.rtxQ[:0], c.rtxQ[acked:]...)
		if len(c.rtxQ) == 0 {
			// Nothing is outstanding: the buffer is reused from its
			// first byte.
			c.sndBuf, c.sndOff = c.sndBuf[:0], 0
		}
		c.dupAcks = 0
		c.retries = 0
		c.rtoBackoff = 0
		if len(c.rtxQ) > 0 {
			c.armTimer()
		} else {
			c.timerEpoch++ // disarm: pending expiries become no-ops
		}
		return
	}
	if ack == c.sndUna && len(c.rtxQ) > 0 && !hasPayload {
		c.dupAcks++
		if c.dupAcks >= DupAckThreshold {
			c.dupAcks = 0
			c.stats.FastRetransmits++
			c.retransmitFirst()
		}
	}
}
