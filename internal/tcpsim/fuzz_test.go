package tcpsim

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// parseAlloc runs ParseSegment over in and reports the bytes it
// allocated.
func parseAlloc(in []byte) (Segment, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seg, err := ParseSegment(in)
	runtime.ReadMemStats(&after)
	return seg, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzParseSegment holds the segment parser to three properties on
// arbitrary bytes: it never panics; it allocates in proportion to the
// input, not to anything a header claims (it allocates nothing but a
// short segment's error); and every segment it accepts marshals back
// to the input byte for byte, except the reserved header byte, which
// Marshal writes as zero and ParseSegment ignores.
// Its seeds are in testdata/fuzz/FuzzParseSegment.
func FuzzParseSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		seg, alloc, err := parseAlloc(in)
		// The constant covers the error value and what the fuzzing
		// engine allocates beside the call.
		if bound := uint64(4*len(in)) + 64<<10; alloc > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(in), alloc, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrShortSegment) || len(in) >= headerLen {
				t.Fatalf("%d bytes: %v", len(in), err)
			}
			return
		}
		want := bytes.Clone(in)
		want[headerLen-1] = 0
		wire := seg.Marshal()
		if !bytes.Equal(wire, want) {
			t.Fatalf("%x parses to %+v, which marshals to %x", in, seg, wire)
		}
		back, err := ParseSegment(wire)
		if err != nil || back.SrcPort != seg.SrcPort || back.DstPort != seg.DstPort || back.Seq != seg.Seq ||
			back.Ack != seg.Ack || back.Flags != seg.Flags || back.Window != seg.Window || !bytes.Equal(back.Payload, seg.Payload) {
			t.Fatalf("%x: round trip gives %+v, %v; want %+v", in, back, err, seg)
		}
	})
}
