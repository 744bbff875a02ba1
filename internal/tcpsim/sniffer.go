package tcpsim

import (
	"time"

	"masterparasite/internal/netsim"
)

// Observed is one TCP segment seen by an eavesdropper, together with the
// addressing needed to forge replies.
type Observed struct {
	Time time.Duration
	Src  netsim.Addr
	Dst  netsim.Addr
	Seg  Segment
}

// Sniffer parses every TCP frame on a segment through a promiscuous tap.
// It is the paper's master in its observation role (§III): "The master
// sees the TCP source port and the TCP sequence number in the segments
// sent by the client and hence can craft correct response segments
// impersonating the server."
type Sniffer struct {
	tap  *netsim.Tap
	onTC func(Observed)
}

// NewSniffer attaches a tap with the given proximity delay and invokes fn
// for every parsed TCP segment.
func NewSniffer(seg *netsim.Segment, delay time.Duration, fn func(Observed)) *Sniffer {
	s := &Sniffer{onTC: fn}
	s.tap = seg.AttachTap(delay, func(now time.Duration, pkt netsim.Packet) {
		if pkt.Proto != netsim.ProtoTCP {
			return
		}
		tseg, err := ParseSegment(pkt.Payload)
		if err != nil {
			return
		}
		if s.onTC != nil {
			s.onTC(Observed{Time: now, Src: pkt.Src, Dst: pkt.Dst, Seg: tseg})
		}
	})
	return s
}

// Stop detaches the sniffer's observation callback. The experiments use
// this to model the victim moving out of the attacker's radio range: the
// master no longer observes or injects, and only the C&C channel remains
// (§VI-C: "After the victim disconnects from the network on which the
// initial infection was made").
func (s *Sniffer) Stop() { s.onTC = nil }

// Inject races a spoofed reply to an observed client request onto the
// segment through the sniffer's tap, impersonating the server. The
// payload is cut into DefaultMSS-sized segments whose ports are the
// request's swapped, whose sequence number is the request's
// acknowledgement (the next byte the client expects from the server)
// plus the segment's offset, and whose acknowledgement covers the
// request's bytes: the field adjustment of §V ("these fields he can
// adjust from the HTTP request packets that the victim client sends").
// Each segment is marshalled straight into a pooled frame, so payload
// may be reused once Inject returns.
func (s *Sniffer) Inject(req Observed, payload []byte) {
	for off := 0; off < len(payload); off += DefaultMSS {
		seg := Segment{
			SrcPort: req.Seg.DstPort,
			DstPort: req.Seg.SrcPort,
			Seq:     SeqAdd(req.Seg.Ack, off),
			Ack:     SeqAdd(req.Seg.Seq, len(req.Seg.Payload)),
			Flags:   FlagACK | FlagPSH,
			Window:  DefaultWindow,
			Payload: payload[off:min(off+DefaultMSS, len(payload))],
		}
		s.tap.InjectPayload(req.Dst, req.Src, netsim.ProtoTCP,
			func(dst []byte) []byte { return seg.AppendMarshal(dst) })
	}
}
