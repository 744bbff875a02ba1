package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// Recorder captures a canonical event stream: every event is encoded
// once, folded into the streaming SHA-256 divergence fingerprint,
// appended to the in-memory event list, and (when a writer is attached)
// written to the append-only log. The same Recorder therefore serves as
// the capture path, the fingerprint computer, and the in-memory source
// for Drive or Diff.
type Recorder struct {
	w       io.Writer
	h       hash.Hash
	scratch []byte
	events  []Event
	err     error
}

// NewRecorder starts a recorder. w receives the binary log (header
// first); pass nil to record fingerprint and in-memory events only.
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{w: w, h: sha256.New()}
	if w != nil {
		r.err = writeHeader(w)
	}
	return r
}

// Add captures one event. The event's payload is copied, so callers may
// hand in views of pooled buffers.
func (r *Recorder) Add(ev Event) {
	r.scratch = ev.appendRecord(r.scratch[:0])
	r.h.Write(r.scratch)
	if r.w != nil && r.err == nil {
		if _, err := r.w.Write(r.scratch); err != nil {
			r.err = err
		}
	}
	if ev.Payload != nil {
		ev.Payload = append([]byte(nil), ev.Payload...)
	}
	r.events = append(r.events, ev)
}

// Events returns the captured events in order.
func (r *Recorder) Events() []Event { return r.events }

// Count reports how many events were captured.
func (r *Recorder) Count() int { return len(r.events) }

// CountKind reports how many captured events have the given kind.
func (r *Recorder) CountKind(k Kind) int {
	n := 0
	for i := range r.events {
		if r.events[i].Kind == k {
			n++
		}
	}
	return n
}

// Fingerprint returns the divergence fingerprint of the stream so far:
// the hex SHA-256 of the canonical record bytes.
func (r *Recorder) Fingerprint() string {
	return hex.EncodeToString(r.h.Sum(nil))
}

// Err reports the first log-write error, if any.
func (r *Recorder) Err() error { return r.err }

// Tap adapts one scenario's observation hooks — the netsim wire tap and
// the C&C exchange observer — into canonical events captured by a
// recorder. Time for C&C events is read from the attached network's
// virtual clock.
type Tap struct {
	rec   *Recorder
	clock *netsim.Network
	// keep filters which kinds are captured; nil keeps everything. Drive
	// uses it to recapture only the send-level stream.
	keep func(Kind) bool
}

// NewTap builds a tap feeding rec.
func NewTap(rec *Recorder) *Tap { return &Tap{rec: rec} }

// Attach installs the tap as the network's wire tap and binds the
// virtual clock.
func (t *Tap) Attach(n *netsim.Network) {
	t.clock = n
	n.SetWireTap(t.wire)
}

// emit dispatches one canonical event.
func (t *Tap) emit(ev Event) {
	if t.keep != nil && !t.keep(ev.Kind) {
		return
	}
	t.rec.Add(ev)
}

// wire converts one wire event (payload valid only during the call) into
// its canonical event, plus the derived TCP annotation for TCP sends.
func (t *Tap) wire(we netsim.WireEvent) {
	ev := Event{
		Kind:    wireKind(we.Kind),
		Time:    we.Time,
		Segment: we.Segment,
		Src:     string(we.Src),
		Dst:     string(we.Dst),
		Proto:   uint8(we.Proto),
		Size:    uint32(len(we.Payload)),
	}
	if we.Kind == netsim.WireSend || we.Kind == netsim.WireDrop {
		ev.Payload = we.Payload
	}
	t.emit(ev)
	if we.Kind != netsim.WireSend || we.Proto != netsim.ProtoTCP {
		return
	}
	seg, err := tcpsim.ParseSegment(we.Payload)
	if err != nil {
		return // unparseable TCP payload: the send event already has the bytes
	}
	t.emit(Event{
		Kind: KindTCP, Time: we.Time,
		Segment: we.Segment, Src: string(we.Src), Dst: string(we.Dst),
		Proto: uint8(we.Proto), Size: uint32(len(seg.Payload)),
		SrcPort: seg.SrcPort, DstPort: seg.DstPort,
		Seq: seg.Seq, Ack: seg.Ack, Flags: uint8(seg.Flags),
	})
}

// ObserveCNC captures one covert-channel exchange, stamped with the
// attached network's virtual time.
func (t *Tap) ObserveCNC(bot, path string, status, respBytes int) {
	var now time.Duration
	if t.clock != nil {
		now = t.clock.Now()
	}
	t.emit(Event{
		Kind: KindCNC, Time: now,
		Bot: bot, Path: path,
		Status: uint16(status), Size: uint32(respBytes),
	})
}

// wireKind maps netsim wire kinds onto replay kinds.
func wireKind(k netsim.WireKind) Kind {
	switch k {
	case netsim.WireSend:
		return KindSend
	case netsim.WireDeliver:
		return KindDeliver
	case netsim.WireTapDeliver:
		return KindTap
	case netsim.WireDupDeliver:
		return KindDup
	default:
		return KindDrop
	}
}
