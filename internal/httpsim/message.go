// Package httpsim implements a small HTTP/1.1 layer over the tcpsim
// transport. Requests and responses use the standard textual wire format,
// so bytes crafted by the attacker (spoofed server responses, §V) are
// indistinguishable on the wire from genuine ones — which is the point of
// the attack.
//
// The layer is deliberately one-request-per-connection (Connection:
// close semantics): the experiments need many independent request/response
// races, not connection reuse.
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
)

// Field is one header line.
type Field struct {
	Key, Value string
}

// Header is a single-valued header kept sorted by canonical key, so
// Marshal writes it in order without sorting. A message carries about
// ten fields at most, so lookups scan. Set and Del edit in place: two
// struct copies of a message share in-place edits but not appends, so
// a response copy that will be edited is made with Response.Clone.
type Header []Field

// inlineFields is how many header fields a built or parsed message
// holds in its own struct: its Header starts on that array, so a
// message of up to inlineFields fields makes no separate allocation
// for them.
const inlineFields = 3

// find returns the index of the canonical key in h, or the index it
// would be inserted at, and whether it is present.
func (h Header) find(key string) (int, bool) {
	for i, f := range h {
		if f.Key >= key {
			return i, f.Key == key
		}
	}
	return len(h), false
}

// Set stores value under the canonical form of key.
func (h *Header) Set(key, value string) {
	key = textproto.CanonicalMIMEHeaderKey(key)
	i, ok := h.find(key)
	switch {
	case ok:
		(*h)[i].Value = value
	case cap(*h) == 0:
		// A header made outside NewRequest and NewResponse, which start
		// it on inline storage, mostly carries one or two fields: room
		// for two up front spares the regrowth.
		*h = append(make(Header, 0, 2), Field{key, value})
	default:
		*h = slices.Insert(*h, i, Field{key, value})
	}
}

// Get returns the value for key ("" when absent).
func (h Header) Get(key string) string {
	if i, ok := h.find(textproto.CanonicalMIMEHeaderKey(key)); ok {
		return h[i].Value
	}
	return ""
}

// Has reports whether key is present.
func (h Header) Has(key string) bool {
	_, ok := h.find(textproto.CanonicalMIMEHeaderKey(key))
	return ok
}

// Del removes key.
func (h *Header) Del(key string) {
	if i, ok := h.find(textproto.CanonicalMIMEHeaderKey(key)); ok {
		*h = slices.Delete(*h, i, i+1)
	}
}

// Clone returns an independent copy.
func (h Header) Clone() Header { return slices.Clone(h) }

// Request is an HTTP request message.
type Request struct {
	Method string
	Path   string // path plus optional query string
	Host   string
	Header Header
	Body   []byte

	inline [inlineFields]Field // Header's first storage
}

// NewRequest builds a request with an empty header.
func NewRequest(method, host, path string) *Request {
	r := &Request{Method: method, Host: host, Path: path}
	r.Header = r.inline[:0]
	return r
}

// URL returns the host-qualified URL (scheme-less), the cache key space
// used throughout the system.
func (r *Request) URL() string { return r.Host + r.Path }

// Query returns the value of a query parameter, or "".
func (r *Request) Query(key string) string {
	i := strings.IndexByte(r.Path, '?')
	if i < 0 {
		return ""
	}
	for _, kv := range strings.Split(r.Path[i+1:], "&") {
		k, v, _ := strings.Cut(kv, "=")
		if k == key {
			return v
		}
	}
	return ""
}

// PathOnly returns the path with any query string removed.
func (r *Request) PathOnly() string {
	if i := strings.IndexByte(r.Path, '?'); i >= 0 {
		return r.Path[:i]
	}
	return r.Path
}

// appendHeaderLine appends "k: v\r\n".
func appendHeaderLine(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, '\r', '\n')
}

// Marshal encodes the request in HTTP/1.1 wire format into one
// exact-size allocation.
func (r *Request) Marshal() []byte { return r.AppendMarshal(nil) }

// AppendMarshal appends the request's wire encoding to b and returns
// the result, growing b at most once. This sits under every simulated
// fetch: the client marshals into a buffer it reuses.
func (r *Request) AppendMarshal(b []byte) []byte {
	n := len(r.Method) + 1 + len(r.Path) + len(" HTTP/1.1\r\n") +
		len("Host: ") + len(r.Host) + 2
	for _, f := range r.Header {
		if f.Key == "Host" || f.Key == "Content-Length" {
			continue
		}
		n += len(f.Key) + 2 + len(f.Value) + 2
	}
	if len(r.Body) > 0 {
		n += len("Content-Length: ") + intLen(len(r.Body)) + 2
	}
	n += 2 + len(r.Body)

	b = slices.Grow(b, n)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = appendHeaderLine(b, "Host", r.Host)
	for _, f := range r.Header {
		if f.Key == "Host" || f.Key == "Content-Length" {
			continue
		}
		b = appendHeaderLine(b, f.Key, f.Value)
	}
	if len(r.Body) > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.Body)), 10)
		b = append(b, '\r', '\n')
	}
	b = append(b, '\r', '\n')
	return append(b, r.Body...)
}

// Response is an HTTP response message.
type Response struct {
	StatusCode int
	Status     string
	Header     Header
	Body       []byte

	inline [inlineFields]Field // Header's first storage
}

// NewResponse builds a response with standard status text.
func NewResponse(code int, body []byte) *Response {
	r := &Response{StatusCode: code, Status: statusText(code), Body: body}
	r.Header = r.inline[:0]
	return r
}

// Clone returns a copy of r that shares nothing with it: the status,
// the status text, the body, and the header, appended into the copy's
// own inline fields, so a response of up to inlineFields fields costs
// the struct and the body.
func (r *Response) Clone() *Response {
	c := &Response{StatusCode: r.StatusCode, Status: r.Status, Body: bytes.Clone(r.Body)}
	c.Header = append(c.inline[:0], r.Header...)
	return c
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// intLen returns the decimal digit count of a non-negative int.
func intLen(v int) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// Marshal encodes the response in HTTP/1.1 wire format with an explicit
// Content-Length — this is also the byte string the attacker injects.
// Like Request.Marshal, it assembles the message into one exact-size
// allocation.
func (r *Response) Marshal() []byte { return r.AppendMarshal(nil) }

// AppendMarshal appends the response's wire encoding to b and returns
// the result, growing b at most once; the server marshals into a buffer
// it reuses.
func (r *Response) AppendMarshal(b []byte) []byte {
	status := r.Status
	if status == "" {
		status = statusText(r.StatusCode)
	}
	n := len("HTTP/1.1 ") + intLen(r.StatusCode) + 1 + len(status) + 2
	for _, f := range r.Header {
		if f.Key == "Content-Length" {
			continue
		}
		n += len(f.Key) + 2 + len(f.Value) + 2
	}
	n += len("Content-Length: ") + intLen(len(r.Body)) + 2 + 2 + len(r.Body)

	b = slices.Grow(b, n)
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, '\r', '\n')
	for _, f := range r.Header {
		if f.Key == "Content-Length" {
			continue
		}
		b = appendHeaderLine(b, f.Key, f.Value)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	return append(b, r.Body...)
}

// Errors returned by the parsers.
var (
	ErrIncomplete = errors.New("httpsim: incomplete message")
	ErrMalformed  = errors.New("httpsim: malformed message")
)

// splitHead returns the header block and the byte offset of the body, or
// ErrIncomplete when the blank line has not arrived yet.
func splitHead(data []byte) (head []byte, bodyOff int, err error) {
	i := bytes.Index(data, []byte("\r\n\r\n"))
	if i < 0 {
		return nil, 0, ErrIncomplete
	}
	return data[:i], i + 4, nil
}

// isRequestLine reports whether the head opens with a request line,
// "METHOD SP target SP HTTP/…", reading the bytes in place: the master
// runs ParseRequest on every payload it overhears, responses included,
// and such a miss must allocate nothing.
func isRequestLine(head []byte) bool {
	line, _, _ := bytes.Cut(head, []byte("\r\n"))
	_, rest, ok1 := bytes.Cut(line, []byte(" "))
	_, proto, ok2 := bytes.Cut(rest, []byte(" "))
	return ok1 && ok2 && bytes.HasPrefix(proto, []byte("HTTP/"))
}

// parseHead converts the header block into one string (the only parse
// allocation besides the message and, past inlineFields fields, the
// header slice — every line, key, and value is a substring of it) and
// splits off the start line.
func parseHead(head []byte) (startLine, rest string) {
	s := string(head)
	if i := strings.Index(s, "\r\n"); i >= 0 {
		return s[:i], s[i+2:]
	}
	return s, ""
}

// parseHeaders decodes "Key: value\r\n" lines from the header block,
// walking line by line instead of materialising a []string split, into
// h, the message's inline storage, or past its capacity into a slice
// sized once from the line count.
func parseHeaders(s string, h Header) (Header, error) {
	if n := strings.Count(s, "\r\n") + 1; n > cap(h) {
		h = make(Header, 0, n)
	}
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
		h.Set(strings.TrimSpace(k), strings.TrimSpace(v))
	}
	return h, nil
}

// contentLength reads and validates the Content-Length header (0 when
// absent).
func contentLength(hdr Header) (int, error) {
	v := hdr.Get("Content-Length")
	if v == "" {
		return 0, nil
	}
	clen, err := strconv.Atoi(v)
	if err != nil || clen < 0 {
		return 0, fmt.Errorf("%w: content-length %q", ErrMalformed, v)
	}
	return clen, nil
}

// ParseRequest decodes one request from data, returning the message and
// the number of bytes consumed. It returns ErrIncomplete until a full
// message is buffered. A head that does not open with a request line
// fails with the bare ErrMalformed before anything is allocated. The
// returned Body aliases data — callers that mutate or recycle the wire
// buffer must copy it first (the simulated stacks never do: wire
// buffers are written once per message).
func ParseRequest(data []byte) (*Request, int, error) {
	head, bodyOff, err := splitHead(data)
	if err != nil {
		return nil, 0, err
	}
	if !isRequestLine(head) {
		return nil, 0, ErrMalformed
	}
	startLine, rest := parseHead(head)
	method, target, _ := strings.Cut(startLine, " ")
	path, _, _ := strings.Cut(target, " ")
	r := &Request{Method: method, Path: path}
	hdr, err := parseHeaders(rest, r.inline[:0])
	if err != nil {
		return nil, 0, err
	}
	clen, err := contentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	if clen > len(data)-bodyOff {
		return nil, 0, ErrIncomplete
	}
	r.Host = hdr.Get("Host")
	hdr.Del("Host")
	r.Header = hdr
	r.Body = data[bodyOff : bodyOff+clen : bodyOff+clen]
	return r, bodyOff + clen, nil
}

// ParseResponse decodes one response from data, returning the message and
// bytes consumed, or ErrIncomplete. Like ParseRequest, the returned Body
// is a zero-copy view of data.
func ParseResponse(data []byte) (*Response, int, error) {
	head, bodyOff, err := splitHead(data)
	if err != nil {
		return nil, 0, err
	}
	startLine, rest := parseHead(head)
	proto, codeStatus, ok := strings.Cut(startLine, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, 0, fmt.Errorf("%w: status line %q", ErrMalformed, startLine)
	}
	codeText, status, _ := strings.Cut(codeStatus, " ")
	code, err := strconv.Atoi(codeText)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: status code %q", ErrMalformed, codeText)
	}
	r := &Response{StatusCode: code, Status: status}
	hdr, err := parseHeaders(rest, r.inline[:0])
	if err != nil {
		return nil, 0, err
	}
	clen, err := contentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	if clen > len(data)-bodyOff {
		return nil, 0, ErrIncomplete
	}
	r.Header = hdr
	r.Body = data[bodyOff : bodyOff+clen : bodyOff+clen]
	return r, bodyOff + clen, nil
}
