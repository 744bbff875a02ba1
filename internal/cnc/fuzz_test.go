package cnc

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// allocated runs fn and reports the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a decoder may allocate for n input bytes: a few
// bytes per input byte, plus a constant that covers the error value and
// what the fuzzing engine allocates beside the call.
func allocBound(n int) uint64 { return uint64(4*n) + 64<<10 }

// FuzzDecodeURLChunk holds the upstream chunk decoder, which reads the
// last segment of an /up path, to three properties on arbitrary
// strings: it never panics; it allocates in proportion to the chunk;
// and every chunk it accepts round-trips through AppendURLChunk. The
// decoder skips CR and LF and ignores the unused low bits of a final
// partial quantum, so the re-encoded chunk is the input without its
// line breaks, up to those bits in its last character.
// Its seeds are in testdata/fuzz/FuzzDecodeURLChunk.
func FuzzDecodeURLChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk string) {
		var (
			msg []byte
			err error
		)
		if alloc := allocated(func() { msg, err = DecodeURLChunk(chunk) }); alloc > allocBound(len(chunk)) {
			t.Fatalf("%d chunk bytes allocated %d, bound %d", len(chunk), alloc, allocBound(len(chunk)))
		}
		if err != nil {
			var corrupt base64.CorruptInputError
			if !errors.As(err, &corrupt) {
				t.Fatalf("%q: %v", chunk, err)
			}
			return
		}
		enc := AppendURLChunk(nil, msg)
		if back, err := DecodeURLChunk(string(enc)); err != nil || !bytes.Equal(back, msg) {
			t.Fatalf("%q decodes to %x, which re-encodes to %q and decodes to %x, %v", chunk, msg, enc, back, err)
		}
		want := strings.NewReplacer("\r", "", "\n", "").Replace(chunk)
		if n := len(want); len(enc) != n || (string(enc) != want && (n%4 == 0 || string(enc[:n-1]) != want[:n-1])) {
			t.Fatalf("%q decodes to %x, which re-encodes to %q", chunk, msg, enc)
		}
	})
}

// FuzzAppendDecodeDims holds the dimension-stream decoder, which reads
// the sizes of the images a master serves, to three properties on
// arbitrary streams (every four input bytes are one image's width and
// height, big-endian): it never panics; it allocates in proportion to
// the stream, not to the length its first image claims; and every
// stream it accepts round-trips through AppendDims, which frames the
// message it decoded as the stream's leading bytes, zero-padded to a
// whole image.
// Its seeds are in testdata/fuzz/FuzzAppendDecodeDims.
func FuzzAppendDecodeDims(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dims := make([]Dim, len(in)/BytesPerImage)
		for i := range dims {
			dims[i] = Dim{W: binary.BigEndian.Uint16(in[4*i:]), H: binary.BigEndian.Uint16(in[4*i+2:])}
		}
		stream := in[:len(dims)*BytesPerImage]
		var (
			msg []byte
			err error
		)
		if alloc := allocated(func() { msg, err = AppendDecodeDims(nil, dims) }); alloc > allocBound(len(stream)) {
			t.Fatalf("%d stream bytes allocated %d, bound %d", len(stream), alloc, allocBound(len(stream)))
		}
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%x: %v", stream, err)
			}
			return
		}
		framed := 4 + len(msg)
		if uint32(len(msg)) != binary.BigEndian.Uint32(stream) || framed > len(stream) {
			t.Fatalf("%x decodes to %d bytes", stream, len(msg))
		}
		want := append(bytes.Clone(stream[:framed]), make([]byte, ImagesNeeded(len(msg))*BytesPerImage-framed)...)
		var enc []byte
		for _, d := range AppendDims(nil, msg) {
			enc = binary.BigEndian.AppendUint16(enc, d.W)
			enc = binary.BigEndian.AppendUint16(enc, d.H)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%x decodes to %x, which encodes to %x, want %x", stream, msg, enc, want)
		}
	})
}
