package replay

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// bombLog is a header plus a length prefix that claims maxRecord bytes,
// with no record body behind it: nine bytes of input that must not buy
// a 16 MiB allocation.
func bombLog() []byte {
	b := append([]byte(nil), logMagic[:]...)
	b = append(b, LogVersion)
	return binary.LittleEndian.AppendUint32(b, maxRecord)
}

// readLogAlloc runs ReadLog over in and reports the bytes it allocated.
func readLogAlloc(in []byte) ([]Event, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, err := ReadLog(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	return events, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadLogAllocatesOnlyPresentBytes pins the length-prefix bomb: a
// record that claims maxRecord bytes but carries none fails as truncated
// without first allocating what it claims.
func TestReadLogAllocatesOnlyPresentBytes(t *testing.T) {
	_, alloc, err := readLogAlloc(bombLog())
	if err == nil || err.Error() != "replay: truncated record 0: EOF" {
		t.Fatalf("err = %v, want the truncated-record error", err)
	}
	if alloc >= 64<<10 {
		t.Fatalf("a 9-byte log allocated %d KiB, want under 64 KiB", alloc>>10)
	}
}

// readLogAllocBound is the most ReadLog may allocate for an input of n
// bytes. The smallest record is 47 bytes and decodes into a 152-byte
// Event; growing the event slice allocates up to about 6.5 times what
// the final slice holds (large slices grow by a quarter), about 21 bytes
// per input byte. Strings and payloads are copies of input bytes, and
// the record buffer grows at most to twice the largest record present.
// The constant covers the bufio reader and small fixed costs.
func readLogAllocBound(n int) uint64 { return 24*uint64(n) + 64<<10 }

// FuzzReadLog holds the log reader to three properties on arbitrary
// bytes: it never panics, it allocates in proportion to the input
// rather than to what a length prefix claims, and whatever it accepts is
// canonical — re-recording the decoded events reproduces the input byte
// for byte, with the same divergence fingerprint.
func FuzzReadLog(f *testing.F) {
	var header bytes.Buffer
	NewRecorder(&header)
	f.Add(header.Bytes())

	var full bytes.Buffer
	rec := NewRecorder(&full)
	for _, e := range sampleEvents() {
		rec.Add(e)
	}
	log := full.Bytes()
	f.Add(log)
	f.Add(bombLog())
	for _, cut := range []int{4, 5, 7, 9, 30, len(log) - 1} {
		f.Add(log[:cut])
	}
	f.Add(append(append([]byte(nil), log...), 0))
	f.Add(append(append([]byte(nil), log...), 1, 0, 0, 0, 9))

	f.Fuzz(func(t *testing.T, in []byte) {
		events, alloc, err := readLogAlloc(in)
		if bound := readLogAllocBound(len(in)); alloc > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(in), alloc, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		rec := NewRecorder(&out)
		for _, e := range events {
			rec.Add(e)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("re-recorded log differs from the accepted input:\n got %x\nwant %x", out.Bytes(), in)
		}
		if fp := FingerprintEvents(events); fp != rec.Fingerprint() {
			t.Fatalf("FingerprintEvents %s != recorder fingerprint %s", fp, rec.Fingerprint())
		}
	})
}
