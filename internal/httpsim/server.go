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
	stack   *tcpsim.Stack
	handler HandlerFunc
	sealer  Sealer // nil for plaintext HTTP

	requests int
}

// NewServer starts a listener on port. The handler runs inside the
// netsim event loop. A nil sealer serves plaintext HTTP; otherwise the
// listener is the HTTPS stand-in: requests must open with the sealer's
// key and responses are sealed, so an eavesdropper on the path sees only
// ciphertext.
func NewServer(stack *tcpsim.Stack, port uint16, sealer Sealer, handler HandlerFunc) (*Server, error) {
	s := &Server{stack: stack, handler: handler, sealer: sealer}
	err := stack.Listen(port, func(conn *tcpsim.Conn) {
		var buf []byte
		conn.OnData(func(b []byte) {
			buf = append(buf, b...)
			var reqBytes []byte
			if s.sealer != nil {
				plaintext, _, oerr := s.sealer.Open(buf)
				if oerr != nil {
					return // incomplete, or a forgery that cannot be opened
				}
				reqBytes = plaintext
			} else {
				reqBytes = buf
			}
			req, _, perr := ParseRequest(reqBytes)
			if perr != nil {
				return // incomplete or garbage; wait for more bytes
			}
			s.requests++
			resp := s.handler(req)
			if resp == nil {
				resp = NewResponse(500, []byte("internal error"))
			}
			out := resp.Marshal()
			if s.sealer != nil {
				out = s.sealer.Seal(out)
			}
			if _, werr := conn.Write(out); werr != nil {
				return
			}
			_ = conn.Close()
		})
	})
	if err != nil {
		return nil, fmt.Errorf("httpsim server: %w", err)
	}
	return s, nil
}

// Requests reports how many requests the server has handled.
func (s *Server) Requests() int { return s.requests }

// Client issues HTTP requests over a tcpsim stack. Completion is
// callback-based because the whole simulation runs inside one event loop.
type Client struct {
	stack *tcpsim.Stack
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
	var buf []byte
	done := false
	_, err := c.stack.Dial(dst, port, func(conn *tcpsim.Conn) {
		conn.OnData(func(b []byte) {
			if done {
				return
			}
			buf = append(buf, b...)
			respBytes := buf
			if sealer != nil {
				plaintext, _, oerr := sealer.Open(buf)
				if errors.Is(oerr, ErrSealIncomplete) {
					return
				}
				if oerr != nil {
					// Forged or corrupted record: the secure channel is
					// poisoned and the exchange aborts — the injected
					// payload never reaches the HTTP layer.
					done = true
					cb(nil, fmt.Errorf("httpsim client: %w", oerr))
					return
				}
				respBytes = plaintext
			}
			resp, _, perr := ParseResponse(respBytes)
			if perr != nil {
				return
			}
			done = true
			cb(resp, nil)
		})
		out := req.Marshal()
		if sealer != nil {
			out = sealer.Seal(out)
		}
		if _, werr := conn.Write(out); werr != nil && !done {
			done = true
			cb(nil, fmt.Errorf("httpsim client write: %w", werr))
		}
	})
	if err != nil {
		cb(nil, fmt.Errorf("httpsim client dial: %w", err))
	}
}
