package httpsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// lifecycleLab is a client and a server that answers every request
// with body, on one segment, on stacks built with opts. It keeps every
// connection the server accepts through its listener and every one the
// client dials, so a test can ask each how it ended.
type lifecycleLab struct {
	net    *netsim.Network
	seg    *netsim.Segment
	client *Client
	conns  []*tcpsim.Conn
}

func newLifecycleLab(t *testing.T, body []byte, opts ...tcpsim.StackOption) *lifecycleLab {
	t.Helper()
	l := &lifecycleLab{net: netsim.New()}
	l.seg = l.net.MustSegment("net", time.Millisecond)
	cIfc := l.seg.MustAttach("client", 0, nil)
	sIfc := l.seg.MustAttach("server", 4*time.Millisecond, nil)
	l.client = NewClient(tcpsim.NewStack(l.net, cIfc, append([]tcpsim.StackOption{tcpsim.WithSeed(3)}, opts...)...))
	serverStack := tcpsim.NewStack(l.net, sIfc, append([]tcpsim.StackOption{tcpsim.WithSeed(5)}, opts...)...)
	resp := NewResponse(200, body)
	srv := &Server{handler: func(*Request) *Response { return resp }}
	if err := serverStack.Listen(80, func(c *tcpsim.Conn) tcpsim.Handler {
		l.conns = append(l.conns, c)
		return srv.accept(c)
	}); err != nil {
		t.Fatal(err)
	}
	return l
}

// get runs one GET as Client.Do does, keeping the client's connection,
// drains the network and returns the response the client parsed.
func (l *lifecycleLab) get(t *testing.T) *Response {
	t.Helper()
	var got *Response
	x := &exchange{client: l.client, req: NewRequest("GET", "somesite.com", "/my.js"),
		cb: func(r *Response, _ error) { got = r }}
	conn, err := l.client.stack.Dial("server", 80, x)
	if err != nil {
		t.Fatal(err)
	}
	l.conns = append(l.conns, conn)
	l.net.Run(0)
	return got
}

// open counts the kept connections that have not ended, by state.
func (l *lifecycleLab) open() map[tcpsim.State]int {
	open := make(map[tcpsim.State]int)
	for _, c := range l.conns {
		if c.State() != tcpsim.StateClosed {
			open[c.State()]++
		}
	}
	return open
}

// TestExchangesEndOverFaultyLinks: 300 exchanges, one after another,
// on retransmitting stacks over each faulty preset. Every one completes,
// and then neither the server's connection nor the client's is left
// open: the client leaves on the server's FIN, and the server on the
// acknowledgement of it.
func TestExchangesEndOverFaultyLinks(t *testing.T) {
	body := bytes.Repeat([]byte("b"), 3000)
	for _, name := range []string{"coffee-shop-wifi", "congested", "mobile-handoff"} {
		lp, err := netsim.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lp.Seed = 31
		l := newLifecycleLab(t, body, tcpsim.WithRetransmit())
		l.seg.SetLinkProfile(lp)
		for i := 0; i < 300; i++ {
			if r := l.get(t); r == nil || !bytes.Equal(r.Body, body) {
				t.Fatalf("%s: exchange #%d got %v", name, i+1, r)
			}
		}
		if l.seg.Lost() == 0 {
			t.Errorf("%s: the link lost nothing over 300 exchanges", name)
		}
		if open := l.open(); len(open) > 0 {
			t.Errorf("%s: of %d connections, these stay open: %v", name, len(l.conns), open)
		}
	}
}

// TestInjectedRaceFootprint: the master's spoofed response, shorter or
// longer than the genuine one, reaches the client, and the connections
// end as documented. The client leaves on the genuine server's FIN.
// The server leaves on its acknowledgement, unless the spoofed response
// was the longer one: then the client acknowledges past the server's
// FIN, bytes the server never sent, which end nothing. On a wire
// without retransmission that server connection waits in FIN_WAIT; with
// retransmission it gives up after DefaultMaxRetries timeouts.
func TestInjectedRaceFootprint(t *testing.T) {
	genuine := bytes.Repeat([]byte("g"), 200)
	for _, tc := range []struct {
		name       string
		spoofed    []byte
		retransmit bool
		server     tcpsim.State
		timeouts   int
	}{
		{"shorter", []byte("PARASITE"), false, tcpsim.StateClosed, 0},
		{"shorter, retransmitting", []byte("PARASITE"), true, tcpsim.StateClosed, 0},
		{"longer", bytes.Repeat([]byte("P"), 1000), false, tcpsim.StateFinWait, 0},
		{"longer, retransmitting", bytes.Repeat([]byte("P"), 1000), true, tcpsim.StateClosed, tcpsim.DefaultMaxRetries},
	} {
		var opts []tcpsim.StackOption
		if tc.retransmit {
			opts = append(opts, tcpsim.WithRetransmit())
		}
		l := newLifecycleLab(t, genuine, opts...)
		forged := NewResponse(200, tc.spoofed).Marshal()
		var sniffer *tcpsim.Sniffer
		sniffer = tcpsim.NewSniffer(l.seg, 0, func(o tcpsim.Observed) {
			if o.Seg.DstPort == 80 && bytes.HasPrefix(o.Seg.Payload, []byte("GET ")) {
				sniffer.Inject(o, forged)
			}
		})
		r := l.get(t)
		if r == nil || !bytes.Equal(r.Body, tc.spoofed) {
			t.Fatalf("%s: client parsed %v, want the spoofed response", tc.name, r)
		}
		if len(l.conns) != 2 {
			t.Fatalf("%s: %d connections, want the server's and the client's", tc.name, len(l.conns))
		}
		client, server := l.conns[0], l.conns[1]
		got := fmt.Sprintf("server %v after %d timeouts, client %v", server.State(), server.Stats().Timeouts, client.State())
		want := fmt.Sprintf("server %v after %d timeouts, client %v", tc.server, tc.timeouts, tcpsim.StateClosed)
		if got != want {
			t.Errorf("%s: %s, want %s", tc.name, got, want)
		}
	}
}

// TestEphemeralPortsWrap: one client runs 16,400 exchanges with one
// server, one after another, so its ephemeral ports (49152–65535) wrap
// and the last 16 exchanges reuse the first ports. Every SYN must find
// the server's side of the earlier connection gone, and every exchange
// complete.
func TestEphemeralPortsWrap(t *testing.T) {
	const exchanges = 16400
	n, _, client, serverStack := newHTTPLab(t)
	body := []byte("var x=1;")
	if _, err := NewServer(serverStack, 80, nil, func(*Request) *Response { return NewResponse(200, body) }); err != nil {
		t.Fatal(err)
	}
	req := NewRequest("GET", "cdn.example.com", "/lib.js")
	done := 0
	cb := func(r *Response, err error) {
		if err == nil && bytes.Equal(r.Body, body) {
			done++
		}
	}
	for i := 0; i < exchanges; i++ {
		client.Do("server", 80, false, req, cb)
		n.Run(0)
	}
	if done != exchanges {
		t.Fatalf("%d of %d exchanges completed", done, exchanges)
	}
}
