package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wireSeeds returns the messages httpsim_test.go builds, valid and
// malformed, plus Content-Length values that overflow bodyOff+clen.
func wireSeeds() [][]byte {
	get := NewRequest("GET", "example.com", "/js/app.js?v=3")
	get.Header.Set("User-Agent", "sim/1.0")
	get.Header.Set("If-None-Match", `"abc"`)
	post := NewRequest("POST", "example.com", "/login")
	post.Body = []byte("user=alice&pass=secret")
	js := NewResponse(200, []byte("console.log(1)"))
	js.Header.Set("Content-Type", "application/javascript")
	js.Header.Set("Cache-Control", "max-age=31536000")
	sorted := NewResponse(200, nil)
	sorted.Header.Set("B-Header", "2")
	sorted.Header.Set("A-Header", "1")
	seeds := [][]byte{
		get.Marshal(), post.Marshal(), js.Marshal(), sorted.Marshal(),
		NewResponse(200, []byte("abcdef")).Marshal(),
		NewResponse(404, nil).Marshal(),
	}
	for _, s := range []string{
		"NOT-HTTP\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeader\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775800\r\n\r\nxyz",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// errClass maps a parse error to the sentinel it wraps, so a bare
// sentinel and a wrapped one compare equal.
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrIncomplete):
		return ErrIncomplete
	case errors.Is(err, ErrMalformed):
		return ErrMalformed
	}
	return err
}

// sortedFields lists a frozen map header the way Header holds it.
func sortedFields(h legacyHeader) Header {
	var out Header
	for k, v := range h {
		out = append(out, Field{k, v})
	}
	slices.SortFunc(out, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// withoutContentLength drops the one header Marshal rewrites.
func withoutContentLength(h Header) Header {
	return slices.DeleteFunc(slices.Clone(h), func(f Field) bool { return f.Key == "Content-Length" })
}

// checkRequest holds ParseRequest to the frozen parser on data, then
// checks that an accepted request survives Marshal and a second parse.
func checkRequest(t *testing.T, data []byte) {
	got, n, err := ParseRequest(data)
	want, wantN, wantErr := legacyParseRequest(data)
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%q: err %v, legacy %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if n != wantN || got.Method != want.Method || got.Path != want.Path || got.Host != want.Host ||
		!bytes.Equal(got.Body, want.Body) || !slices.Equal(got.Header, sortedFields(want.Header)) {
		t.Fatalf("%q:\n got %d %+v\nwant %d %+v", data, n, got, wantN, want)
	}
	wire := got.Marshal()
	back, m, err := ParseRequest(wire)
	if err != nil || m != len(wire) {
		t.Fatalf("%q: marshalled as %q, which parses to %d bytes, %v", data, wire, m, err)
	}
	if back.Method != got.Method || back.Path != got.Path || back.Host != got.Host || !bytes.Equal(back.Body, got.Body) ||
		!slices.Equal(withoutContentLength(back.Header), withoutContentLength(got.Header)) {
		t.Fatalf("%q: round trip through %q gives %+v, want %+v", data, wire, back, got)
	}
}

// checkResponse is checkRequest for ParseResponse.
func checkResponse(t *testing.T, data []byte) {
	got, n, err := ParseResponse(data)
	want, wantN, wantErr := legacyParseResponse(data)
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%q: err %v, legacy %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if n != wantN || got.StatusCode != want.StatusCode || got.Status != want.Status ||
		!bytes.Equal(got.Body, want.Body) || !slices.Equal(got.Header, sortedFields(want.Header)) {
		t.Fatalf("%q:\n got %d %+v\nwant %d %+v", data, n, got, wantN, want)
	}
	wire := got.Marshal()
	back, m, err := ParseResponse(wire)
	if err != nil || m != len(wire) {
		t.Fatalf("%q: marshalled as %q, which parses to %d bytes, %v", data, wire, m, err)
	}
	status := got.Status
	if status == "" {
		status = statusText(got.StatusCode)
	}
	if back.StatusCode != got.StatusCode || back.Status != status || !bytes.Equal(back.Body, got.Body) ||
		!slices.Equal(withoutContentLength(back.Header), withoutContentLength(got.Header)) {
		t.Fatalf("%q: round trip through %q gives %+v, want %+v", data, wire, back, got)
	}
}

// FuzzParseRequest holds ParseRequest to the map-and-split parser it
// replaced: neither may panic, and both must agree on the error class,
// the bytes consumed and every parsed field. An accepted request must
// also parse back from its own Marshal.
func FuzzParseRequest(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkRequest)
}

// FuzzParseResponse is FuzzParseRequest for ParseResponse.
func FuzzParseResponse(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkResponse)
}

// The parsers below are the map-header, SplitN-based ones message.go
// replaced, frozen as the fuzz targets' reference. The only change is
// the overflow-free Content-Length bound.

type legacyHeader map[string]string

type legacyRequest struct {
	Method, Path, Host string
	Header             legacyHeader
	Body               []byte
}

type legacyResponse struct {
	StatusCode int
	Status     string
	Header     legacyHeader
	Body       []byte
}

func legacySplitHead(data []byte) (head []byte, bodyOff int, err error) {
	i := bytes.Index(data, []byte("\r\n\r\n"))
	if i < 0 {
		return nil, 0, ErrIncomplete
	}
	return data[:i], i + 4, nil
}

func legacyParseHead(head []byte) (startLine, rest string) {
	s := string(head)
	if i := strings.Index(s, "\r\n"); i >= 0 {
		return s[:i], s[i+2:]
	}
	return s, ""
}

func legacyParseHeaders(s string) (legacyHeader, error) {
	h := make(legacyHeader, 8)
	for len(s) > 0 {
		ln := s
		if i := strings.Index(s, "\r\n"); i >= 0 {
			ln, s = s[:i], s[i+2:]
		} else {
			s = ""
		}
		if ln == "" {
			continue
		}
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, ln)
		}
		h[textproto.CanonicalMIMEHeaderKey(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return h, nil
}

func legacyContentLength(hdr legacyHeader) (int, error) {
	v := hdr["Content-Length"]
	if v == "" {
		return 0, nil
	}
	clen, err := strconv.Atoi(v)
	if err != nil || clen < 0 {
		return 0, fmt.Errorf("%w: content-length %q", ErrMalformed, v)
	}
	return clen, nil
}

func legacyParseRequest(data []byte) (*legacyRequest, int, error) {
	head, bodyOff, err := legacySplitHead(data)
	if err != nil {
		return nil, 0, err
	}
	startLine, rest := legacyParseHead(head)
	parts := strings.SplitN(startLine, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: request line %q", ErrMalformed, startLine)
	}
	hdr, err := legacyParseHeaders(rest)
	if err != nil {
		return nil, 0, err
	}
	clen, err := legacyContentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	if clen > len(data)-bodyOff {
		return nil, 0, ErrIncomplete
	}
	req := &legacyRequest{
		Method: parts[0],
		Path:   parts[1],
		Host:   hdr["Host"],
		Header: hdr,
		Body:   data[bodyOff : bodyOff+clen : bodyOff+clen],
	}
	delete(hdr, "Host")
	return req, bodyOff + clen, nil
}

func legacyParseResponse(data []byte) (*legacyResponse, int, error) {
	head, bodyOff, err := legacySplitHead(data)
	if err != nil {
		return nil, 0, err
	}
	startLine, rest := legacyParseHead(head)
	parts := strings.SplitN(startLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: status line %q", ErrMalformed, startLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: status code %q", ErrMalformed, parts[1])
	}
	status := ""
	if len(parts) == 3 {
		status = parts[2]
	}
	hdr, err := legacyParseHeaders(rest)
	if err != nil {
		return nil, 0, err
	}
	clen, err := legacyContentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	if clen > len(data)-bodyOff {
		return nil, 0, ErrIncomplete
	}
	return &legacyResponse{
		StatusCode: code,
		Status:     status,
		Header:     hdr,
		Body:       data[bodyOff : bodyOff+clen : bodyOff+clen],
	}, bodyOff + clen, nil
}
