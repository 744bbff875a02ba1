package replay

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// Checker verifies a live event stream against a recorded log as the
// events happen. The first mismatch is latched as a Divergence carrying
// the exact event index and both events; everything after the first
// divergence is ignored (one behavioural change cascades, and the first
// index is the bisection answer).
type Checker struct {
	want    []Event
	idx     int
	div     *Divergence
	wantBuf []byte
	liveBuf []byte
}

// NewChecker builds a checker expecting the recorded event sequence.
func NewChecker(want []Event) *Checker { return &Checker{want: want} }

// observe compares one live event against the expectation at the
// current index.
func (c *Checker) observe(live Event) {
	if c.div != nil {
		return
	}
	if c.idx >= len(c.want) {
		c.div = &Divergence{Index: c.idx, Live: cloneEvent(live)}
		c.idx++
		return
	}
	rec := &c.want[c.idx]
	c.wantBuf = rec.appendTo(c.wantBuf[:0])
	c.liveBuf = live.appendTo(c.liveBuf[:0])
	if !bytes.Equal(c.wantBuf, c.liveBuf) {
		c.div = &Divergence{Index: c.idx, Recorded: cloneEvent(*rec), Live: cloneEvent(live)}
	}
	c.idx++
}

// Finish completes the check: if the live run produced fewer events
// than the log (and no earlier mismatch), that truncation is itself a
// divergence at the first missing index.
func (c *Checker) Finish() *Divergence {
	if c.div == nil && c.idx < len(c.want) {
		c.div = &Divergence{Index: c.idx, Recorded: cloneEvent(c.want[c.idx])}
	}
	return c.div
}

// Divergence is one behavioural difference between a recorded run and a
// live one, pinned to the exact event index. Recorded is nil when the
// live run produced events past the end of the log; Live is nil when
// the live run ended before the log did.
type Divergence struct {
	Index    int
	Recorded *Event
	Live     *Event
}

// String renders the divergence as a before/after event diff.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence at event #%d\n", d.Index)
	switch {
	case d.Recorded == nil:
		fmt.Fprintf(&b, "  recorded: <end of log>\n  live:     %s\n", d.Live)
	case d.Live == nil:
		fmt.Fprintf(&b, "  recorded: %s\n  live:     <run ended>\n", d.Recorded)
	default:
		fmt.Fprintf(&b, "  recorded: %s\n  live:     %s\n", d.Recorded, d.Live)
		if fields := d.ChangedFields(); len(fields) > 0 {
			fmt.Fprintf(&b, "  changed:  %s\n", strings.Join(fields, ", "))
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// ChangedFields renders the per-field before → after differences of the
// two events, or nil when either side of the divergence is missing
// (truncation or extra-event divergences have nothing to diff).
func (d *Divergence) ChangedFields() []string {
	if d.Recorded == nil || d.Live == nil {
		return nil
	}
	return diffFields(d.Recorded, d.Live)
}

// diffFields lists the fields that differ between two events, with
// before → after values.
func diffFields(a, b *Event) []string {
	var out []string
	add := func(name string, av, bv any) {
		if av != bv {
			out = append(out, fmt.Sprintf("%s: %v → %v", name, av, bv))
		}
	}
	add("kind", a.Kind, b.Kind)
	add("time", a.Time, b.Time)
	add("segment", a.Segment, b.Segment)
	add("src", a.Src, b.Src)
	add("dst", a.Dst, b.Dst)
	add("proto", a.Proto, b.Proto)
	add("size", a.Size, b.Size)
	if !bytes.Equal(a.Payload, b.Payload) {
		out = append(out, fmt.Sprintf("payload: %d bytes differ at offset %d",
			len(b.Payload), firstDiff(a.Payload, b.Payload)))
	}
	add("src_port", a.SrcPort, b.SrcPort)
	add("dst_port", a.DstPort, b.DstPort)
	add("seq", a.Seq, b.Seq)
	add("ack", a.Ack, b.Ack)
	add("flags", a.Flags, b.Flags)
	add("bot", a.Bot, b.Bot)
	add("path", a.Path, b.Path)
	add("status", a.Status, b.Status)
	return out
}

// firstDiff returns the first offset at which two byte slices differ.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// cloneEvent deep-copies an event so divergence reports survive pooled
// payload recycling.
func cloneEvent(e Event) *Event {
	cp := e
	if e.Payload != nil {
		cp.Payload = append([]byte(nil), e.Payload...)
	}
	return &cp
}

// Diff compares two event sequences offline and returns the first
// divergence, or nil when they are identical. It is the log-vs-log
// counterpart of a live Checker run.
func Diff(a, b []Event) *Divergence {
	c := NewChecker(a)
	for _, ev := range b {
		c.observe(ev)
		if c.div != nil {
			break
		}
	}
	return c.Finish()
}

// normalizeTimes returns a copy of events with every timestamp divided
// by div — the expectation stream for a time-compressed replay.
func normalizeTimes(events []Event, div int) []Event {
	if div <= 1 {
		return events
	}
	out := append([]Event(nil), events...)
	for i := range out {
		out[i].Time = time.Duration(int64(out[i].Time) / int64(div))
	}
	return out
}
