package httpsim

import (
	"errors"
	"fmt"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// HandlerFunc produces the response for a request. Returning nil yields a
// 500.
type HandlerFunc func(*Request) *Response

// Server serves HTTP over a tcpsim stack, one request per connection.
type Server struct {
	handler HandlerFunc
	sealer  Sealer // nil for plaintext HTTP

	out      []byte // marshal scratch: Conn.Write never keeps its argument
	requests int
}

// NewServer starts a listener on port. The handler runs inside the
// netsim event loop. A nil sealer serves plaintext HTTP; otherwise the
// listener is the HTTPS stand-in: requests must open with the sealer's
// key and responses are sealed, so an eavesdropper on the path sees only
// ciphertext.
func NewServer(stack *tcpsim.Stack, port uint16, sealer Sealer, handler HandlerFunc) (*Server, error) {
	s := &Server{handler: handler, sealer: sealer}
	if err := stack.Listen(port, s.accept); err != nil {
		return nil, fmt.Errorf("httpsim server: %w", err)
	}
	return s, nil
}

// accept gives each inbound connection its own request buffer.
func (s *Server) accept(*tcpsim.Conn) tcpsim.Handler { return &serverConn{s: s} }

// serverConn is the Handler of one inbound connection. Its buffer is
// never reused: a parsed request's body aliases it.
type serverConn struct {
	s   *Server
	buf []byte
}

func (*serverConn) Established(*tcpsim.Conn) {}

// Data buffers the request bytes and, once a whole request has
// arrived, answers it and closes the connection.
func (sc *serverConn) Data(conn *tcpsim.Conn, b []byte) {
	s := sc.s
	sc.buf = append(sc.buf, b...)
	reqBytes := sc.buf
	if s.sealer != nil {
		plaintext, _, err := s.sealer.Open(sc.buf)
		if err != nil {
			return // incomplete, or a forgery that cannot be opened
		}
		reqBytes = plaintext
	}
	req, _, err := ParseRequest(reqBytes)
	if err != nil {
		return // incomplete or garbage; wait for more bytes
	}
	s.requests++
	resp := s.handler(req)
	if resp == nil {
		resp = NewResponse(500, []byte("internal error"))
	}
	s.out = resp.AppendMarshal(s.out[:0])
	out := s.out
	if s.sealer != nil {
		out = s.sealer.Seal(out)
	}
	if _, err := conn.Write(out); err != nil {
		return
	}
	_ = conn.Close()
}

// Requests reports how many requests the server has handled.
func (s *Server) Requests() int { return s.requests }

// Client issues HTTP requests over a tcpsim stack. Completion is
// callback-based because the whole simulation runs inside one event loop.
type Client struct {
	stack *tcpsim.Stack
	out   []byte // marshal scratch: Conn.Write never keeps its argument
}

// NewClient wraps a stack.
func NewClient(stack *tcpsim.Stack) *Client { return &Client{stack: stack} }

// Do sends req to dst:port and invokes cb with the parsed response. With
// a nil sealer the exchange is plaintext, and the response delivered may
// be the genuine server's or an injected one — the client cannot tell,
// which is the vulnerability. With a sealer it is the HTTPS stand-in:
// injected plaintext or wrong-key forgeries never reach the parser, the
// seal layer discards them, which is why HTTPS defeats the injection
// (§V Discussion).
func (c *Client) Do(dst netsim.Addr, port uint16, sealer Sealer, req *Request, cb func(*Response, error)) {
	x := &exchange{client: c, sealer: sealer, req: req, cb: cb}
	if _, err := c.stack.Dial(dst, port, x); err != nil {
		cb(nil, fmt.Errorf("httpsim client dial: %w", err))
	}
}

// exchange is one Client.Do, and the Handler of its connection. Its
// buffer is never reused: the parsed response's body aliases it.
type exchange struct {
	client *Client
	sealer Sealer
	req    *Request
	cb     func(*Response, error)
	buf    []byte
	done   bool
}

// Established sends the request.
func (x *exchange) Established(conn *tcpsim.Conn) {
	c := x.client
	c.out = x.req.AppendMarshal(c.out[:0])
	out := c.out
	if x.sealer != nil {
		out = x.sealer.Seal(out)
	}
	if _, err := conn.Write(out); err != nil && !x.done {
		x.done = true
		x.cb(nil, fmt.Errorf("httpsim client write: %w", err))
	}
}

// Data buffers the response bytes and hands the response to the
// callback once it has all arrived.
func (x *exchange) Data(_ *tcpsim.Conn, b []byte) {
	if x.done {
		return
	}
	x.buf = append(x.buf, b...)
	respBytes := x.buf
	if x.sealer != nil {
		plaintext, _, err := x.sealer.Open(x.buf)
		if errors.Is(err, ErrSealIncomplete) {
			return
		}
		if err != nil {
			// Forged or corrupted record: the secure channel is
			// poisoned and the exchange aborts — the injected
			// payload never reaches the HTTP layer.
			x.done = true
			x.cb(nil, fmt.Errorf("httpsim client: %w", err))
			return
		}
		respBytes = plaintext
	}
	resp, _, err := ParseResponse(respBytes)
	if err != nil {
		return
	}
	x.done = true
	x.cb(resp, nil)
}
