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
	certs   func() []string // nil for plaintext HTTP

	out      []byte // marshal scratch: Conn.Write never keeps its argument
	requests int
}

// NewServer starts a listener on port. The handler runs inside the
// netsim event loop. A nil certs serves plaintext HTTP; otherwise the
// listener is the HTTPS stand-in for the hosts certs returns, tried in
// that order: a request must open under one of their keys, and the
// reply is sealed under the key that opened it, so an eavesdropper on
// the path sees only ciphertext. certs is called per request, so the
// hosts a server holds may change while it runs.
func NewServer(stack *tcpsim.Stack, port uint16, certs func() []string, handler HandlerFunc) (*Server, error) {
	s := &Server{handler: handler, certs: certs}
	if err := stack.Listen(port, s.accept); err != nil {
		return nil, fmt.Errorf("httpsim server: %w", err)
	}
	return s, nil
}

// accept gives each inbound connection its own request state.
func (s *Server) accept(*tcpsim.Conn) tcpsim.Handler { return &serverConn{s: s} }

// serverConn is the Handler of one inbound connection, which carries
// one request.
type serverConn struct {
	s    *Server
	in   inbound
	req  *Request // the parsed head of a plaintext request, awaiting its body
	done bool
}

func (*serverConn) Established(*tcpsim.Conn) {}

// Data assembles the request and, once all of it has arrived, answers
// it and closes the connection. A request that cannot be read (a
// malformed head, or a record no held key opens) goes unanswered.
func (sc *serverConn) Data(conn *tcpsim.Conn, b []byte) {
	if sc.done {
		return
	}
	if sc.s.certs == nil {
		complete, err := sc.in.add(b, sc.sizeRequest)
		switch {
		case err != nil:
			sc.finish()
		case complete:
			req := sc.req
			req.Body = sc.in.message()
			sc.finish()
			sc.answer(conn, req, "")
		}
		return
	}
	complete, err := sc.in.add(b, sealedSize)
	if err == nil && !complete {
		return
	}
	record := sc.in.message()
	sc.finish()
	if err != nil {
		return
	}
	host, plaintext, err := OpenAny(sc.s.certs(), record)
	if err != nil {
		return // a forgery, or sealed for a host the server does not hold
	}
	if req, _, err := ParseRequest(plaintext); err == nil {
		sc.answer(conn, req, host)
	}
}

// finish ends the connection's one message and lets go of what it
// assembled. An answered connection leaves its stack soon after, once
// the client acknowledges its FIN, but one whose request cannot be read
// is never answered or closed, and stays.
func (sc *serverConn) finish() { sc.done, sc.req, sc.in = true, nil, inbound{} }

// sizeRequest parses the request's head once its blank line is in.
func (sc *serverConn) sizeRequest(data []byte) (skip, n int, err error) {
	head, bodyOff, err := splitHead(data)
	if err != nil {
		return 0, 0, err
	}
	sc.req, n, err = parseRequestHead(head)
	return bodyOff, n, err
}

// answer runs the handler on req, sends its response, sealed under
// host's key on an HTTPS listener, and closes the connection.
func (sc *serverConn) answer(conn *tcpsim.Conn, req *Request, host string) {
	s := sc.s
	s.requests++
	resp := s.handler(req)
	if resp == nil {
		resp = NewResponse(500, []byte("internal error"))
	}
	s.out = resp.AppendMarshal(s.out[:0])
	out := s.out
	if s.certs != nil {
		out = Seal(host, out)
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

// Do sends req to dst:port and invokes cb with the parsed response. In
// plaintext the response delivered may be the genuine server's or an
// injected one — the client cannot tell, which is the vulnerability.
// With tls set it is the HTTPS stand-in, sealed under req.Host's key:
// injected plaintext or wrong-key forgeries never reach the parser, the
// seal layer discards them, which is why HTTPS defeats the injection
// (§V Discussion).
func (c *Client) Do(dst netsim.Addr, port uint16, tls bool, req *Request, cb func(*Response, error)) {
	x := &exchange{client: c, tls: tls, req: req, cb: cb}
	if _, err := c.stack.Dial(dst, port, x); err != nil {
		cb(nil, fmt.Errorf("httpsim client dial: %w", err))
	}
}

// exchange is one Client.Do, and the Handler of its connection.
type exchange struct {
	client *Client
	tls    bool
	req    *Request
	cb     func(*Response, error)
	in     inbound
	resp   *Response // the parsed head of a plaintext response, awaiting its body
	done   bool
}

// Established sends the request.
func (x *exchange) Established(conn *tcpsim.Conn) {
	c := x.client
	c.out = x.req.AppendMarshal(c.out[:0])
	out := c.out
	if x.tls {
		out = Seal(x.req.Host, out)
	}
	if _, err := conn.Write(out); err != nil && !x.done {
		x.done = true
		x.cb(nil, fmt.Errorf("httpsim client write: %w", err))
	}
}

// Data assembles the response and hands it to the callback once all of
// it has arrived. A plaintext response that cannot be parsed never
// reaches the callback.
func (x *exchange) Data(_ *tcpsim.Conn, b []byte) {
	if x.done {
		return
	}
	if !x.tls {
		complete, err := x.in.add(b, x.sizeResponse)
		if err != nil {
			x.done = true
		} else if complete {
			x.done = true
			x.resp.Body = x.in.message()
			x.cb(x.resp, nil)
		}
		return
	}
	complete, err := x.in.add(b, sealedSize)
	if err == nil && !complete {
		return
	}
	x.done = true
	var plaintext []byte
	if err == nil {
		plaintext, err = Open(x.req.Host, x.in.message())
	}
	if err != nil {
		// Forged or corrupted record: the secure channel is poisoned
		// and the exchange aborts — the injected payload never reaches
		// the HTTP layer.
		x.cb(nil, fmt.Errorf("httpsim client: %w", err))
		return
	}
	if resp, _, err := ParseResponse(plaintext); err == nil {
		x.cb(resp, nil)
	}
}

// sizeResponse parses the response's head once its blank line is in.
func (x *exchange) sizeResponse(data []byte) (skip, n int, err error) {
	head, bodyOff, err := splitHead(data)
	if err != nil {
		return 0, 0, err
	}
	x.resp, n, err = parseResponseHead(head)
	return bodyOff, n, err
}

// sealedSize sizes a TLS stand-in record from its frame header.
func sealedSize(data []byte) (skip, n int, err error) {
	n, err = frameSize(data)
	return 0, n, err
}

// inbound assembles the one message a connection carries from the bytes
// its Data calls deliver, copying each byte once. The message's head
// fixes its length. A head that arrives whole in one segment is read
// straight from that segment; only a head split across segments is
// buffered until it is complete. The buffer for the rest of the message
// is then reserved once, but for at most tcpsim.DefaultWindow bytes:
// the length is the peer's word, and the peer may be an injector that
// announces a terabyte. Past that cap, append grows the buffer as the
// bytes arrive.
type inbound struct {
	buf   []byte // the incomplete head, then the message past its skipped head
	need  int    // bytes of buf that complete the message, once sized
	sized bool
}

// A sizer reads a message's head from the bytes delivered so far. It
// returns how many leading bytes need no copy (an HTTP head, which its
// parsed message holds as strings) and how many after them complete the
// message, or ErrIncomplete or ErrSealIncomplete until the head has
// arrived. Any other error ends the stream.
type sizer func(data []byte) (skip, n int, err error)

// add takes the next delivered bytes and reports whether the message is
// complete.
func (in *inbound) add(b []byte, size sizer) (bool, error) {
	if in.sized {
		in.buf = append(in.buf, b...)
		return len(in.buf) >= in.need, nil
	}
	data := b
	if len(in.buf) > 0 { // the head began in an earlier segment
		in.buf = append(in.buf, b...)
		data = in.buf
	}
	skip, n, err := size(data)
	if errors.Is(err, ErrIncomplete) || errors.Is(err, ErrSealIncomplete) {
		if len(in.buf) == 0 {
			in.buf = append(in.buf, b...)
		}
		return false, nil
	}
	if err != nil {
		return false, err
	}
	in.sized, in.need = true, n
	in.buf = append(make([]byte, 0, min(n, tcpsim.DefaultWindow)), data[skip:]...)
	return len(in.buf) >= n, nil
}

// message returns the complete message past its skipped head,
// capacity-clamped: an HTTP body, or a whole sealed record.
func (in *inbound) message() []byte { return in.buf[:in.need:in.need] }
