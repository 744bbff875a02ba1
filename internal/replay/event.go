// Package replay is the deterministic wire-event record/replay
// subsystem — the "truth via replay" debugging story for the simulated
// kill chain.
//
// A Recorder taps a live netsim.Network (netsim.SetWireTap) and captures
// every simulated wire event — frame send, delivery, tap delivery, drop,
// a derived annotation for every TCP segment, and every covert C&C
// exchange — into an append-only, length-prefixed binary log with a
// canonical encoding. The encoding is canonical in the strict sense:
// encoding an event always produces the same bytes, so a streaming
// SHA-256 over the record stream (the divergence fingerprint) identifies
// a run's behaviour exactly. Two runs are byte-identical if and only if
// their fingerprints match, at any scenario-fleet worker count.
//
// Diff verifies a run against a recorded log: record a fresh run of the
// same scenario and Diff compares it, event by event, with the log,
// reporting the first behavioural divergence at its exact event index
// with a before/after field diff — a regression bisects to one frame.
//
// Drive re-drives the recorded traffic itself: every recorded send
// is re-injected, at its recorded virtual time, into a live
// netsim.Network whose endpoints are stubs (the outbound legs of the
// original run do not execute), optionally time-compressed. The
// re-captured send stream must reproduce the log's send-level
// fingerprint — proving the log is complete and the codec lossless —
// while a tampered log surfaces as a divergence at the exact event index
// it first altered.
package replay

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Kind classifies a replay event.
type Kind uint8

// Event kinds. The wire kinds mirror netsim.WireKind; KindTCP is a
// derived annotation emitted after every TCP send (parsed header fields,
// so protocol-level drift is visible without decoding payloads); KindCNC
// records one covert-channel exchange routed by the C&C master. KindDup
// is the extra delivery a faulty link's duplication model produced
// (netsim.WireDupDeliver) — clean-wire logs never contain it, so its
// addition leaves historical fingerprints untouched.
const (
	KindSend Kind = iota + 1
	KindDeliver
	KindTap
	KindDrop
	KindTCP
	KindCNC
	KindDup
)

// String returns the conventional name of the event kind.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindTap:
		return "tap"
	case KindDrop:
		return "drop"
	case KindTCP:
		return "tcp"
	case KindCNC:
		return "cnc"
	case KindDup:
		return "dup"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one captured simulation event. Every field is always encoded
// (zero-valued where not applicable to the kind), so the binary form is
// canonical: one event, one byte sequence.
type Event struct {
	Kind Kind
	// Time is the virtual time the event occurred at.
	Time time.Duration
	// Segment, Src, Dst, Proto address the frame (wire kinds).
	Segment string
	Src     string
	Dst     string
	Proto   uint8
	// Size is the payload size on the wire. Payload carries the bytes
	// themselves for sends and drops only — deliveries reference the
	// same frame, so recording the size keeps the log small while the
	// stream stays byte-exact.
	Size    uint32
	Payload []byte

	// TCP annotation fields (KindTCP).
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8

	// C&C exchange fields (KindCNC).
	Bot    string
	Path   string
	Status uint16
}

// String renders the event for divergence reports and CLI output.
func (e Event) String() string {
	ms := float64(e.Time.Microseconds()) / 1000
	switch e.Kind {
	case KindTCP:
		return fmt.Sprintf("t=%.3fms tcp %s:%d→%s:%d seq=%d ack=%d flags=%#x len=%d",
			ms, e.Src, e.SrcPort, e.Dst, e.DstPort, e.Seq, e.Ack, e.Flags, e.Size)
	case KindCNC:
		return fmt.Sprintf("t=%.3fms cnc bot=%s %s → %d (%dB)", ms, e.Bot, e.Path, e.Status, e.Size)
	default:
		return fmt.Sprintf("t=%.3fms %s %s %s→%s proto=%d %dB", ms, e.Kind, e.Segment, e.Src, e.Dst, e.Proto, e.Size)
	}
}

// appendTo appends the event's canonical encoding to dst. The layout is
// fixed — every field in declaration order, little-endian, strings
// u16-length-prefixed, payload u32-length-prefixed — so identical events
// always encode to identical bytes.
func (e *Event) appendTo(dst []byte) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Time))
	dst = appendString(dst, e.Segment)
	dst = appendString(dst, e.Src)
	dst = appendString(dst, e.Dst)
	dst = append(dst, e.Proto)
	dst = binary.LittleEndian.AppendUint32(dst, e.Size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
	dst = append(dst, e.Payload...)
	dst = binary.LittleEndian.AppendUint16(dst, e.SrcPort)
	dst = binary.LittleEndian.AppendUint16(dst, e.DstPort)
	dst = binary.LittleEndian.AppendUint32(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, e.Ack)
	dst = append(dst, e.Flags)
	dst = appendString(dst, e.Bot)
	dst = appendString(dst, e.Path)
	dst = binary.LittleEndian.AppendUint16(dst, e.Status)
	return dst
}

// appendRecord appends the event's log record to dst: the u32 length of
// the canonical encoding, then the encoding. One slice carries both, so
// the fingerprint hash and the log each take a single write.
func (e *Event) appendRecord(dst []byte) []byte {
	start := len(dst)
	dst = e.appendTo(append(dst, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// decodeEvent parses one canonical event body. It returns the bytes
// consumed so a reader can verify the record length matched.
func decodeEvent(b []byte) (Event, int, error) {
	var e Event
	d := decoder{b: b}
	e.Kind = Kind(d.u8())
	e.Time = time.Duration(d.u64())
	e.Segment = d.str()
	e.Src = d.str()
	e.Dst = d.str()
	e.Proto = d.u8()
	e.Size = d.u32()
	e.Payload = d.bytes()
	e.SrcPort = d.u16()
	e.DstPort = d.u16()
	e.Seq = d.u32()
	e.Ack = d.u32()
	e.Flags = d.u8()
	e.Bot = d.str()
	e.Path = d.str()
	e.Status = d.u16()
	if d.err != nil {
		return Event{}, 0, d.err
	}
	return e, d.off, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// decoder walks a canonical event body, latching the first error.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("replay: truncated event body at offset %d", d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	b := d.take(n)
	if b == nil || n == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
