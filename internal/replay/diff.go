package replay

import (
	"bytes"
	"fmt"
	"strings"
)

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

// Diff compares a recorded event sequence with a live one and returns
// the first divergence, or nil when they are identical. Everything after
// the first divergence is ignored: one behavioural change cascades, and
// the first index is the bisection answer. Recorded and Live point into
// want and got.
func Diff(want, got []Event) *Divergence {
	var wantBuf, gotBuf []byte
	for i := range got {
		if i == len(want) {
			return &Divergence{Index: i, Live: &got[i]}
		}
		wantBuf = want[i].appendTo(wantBuf[:0])
		gotBuf = got[i].appendTo(gotBuf[:0])
		if !bytes.Equal(wantBuf, gotBuf) {
			return &Divergence{Index: i, Recorded: &want[i], Live: &got[i]}
		}
	}
	if len(got) < len(want) {
		return &Divergence{Index: len(got), Recorded: &want[len(got)]}
	}
	return nil
}
