package tcpsim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"masterparasite/internal/netsim"
)

// held lists the states of the connections s still holds.
func held(s *Stack) []State {
	var states []State
	for _, c := range s.conns {
		states = append(states, c.state)
	}
	return states
}

// TestEveryConnectionEnds is the connection lifecycle matrix: a
// request and its four-segment reply on retransmitting stacks, over
// links that lose, duplicate or reorder the closing handshake (each
// alone, then all three), with the server closing once it has written
// the reply, the client once it has read it, or both. However the close
// goes, neither stack holds a connection once the network drains: each
// side leaves on the peer's FIN, on the acknowledgement of its own, or
// after DefaultMaxRetries timeouts.
func TestEveryConnectionEnds(t *testing.T) {
	links := []netsim.LinkProfile{
		{Name: "clean"},
		{Name: "loss", Loss: 0.2},
		{Name: "duplicate", Duplicate: 0.3},
		{Name: "reorder", Reorder: 0.3, ReorderDelay: 4 * time.Millisecond},
		{Name: "all", Loss: 0.2, Duplicate: 0.3, Reorder: 0.3, ReorderDelay: 4 * time.Millisecond},
	}
	request := bytes.Repeat([]byte("q"), 300)
	reply := make([]byte, 3*DefaultMSS+100)
	for i := range reply {
		reply[i] = byte(i)
	}
	for _, lp := range links {
		lost, duplicated := 0, 0
		for _, closer := range []string{"server", "client", "both"} {
			for seed := uint64(1); seed <= 20; seed++ {
				lp.Seed = seed
				l := faultyLab(t, lp)
				var gotReq, gotReply []byte
				if err := l.server.Listen(80, func(c *Conn) Handler {
					return onData(func(b []byte) {
						if gotReq = append(gotReq, b...); len(gotReq) < len(request) {
							return
						}
						if _, err := c.Write(reply); err != nil {
							t.Errorf("server write: %v", err)
						}
						if closer != "client" {
							_ = c.Close()
						}
					})
				}); err != nil {
					t.Fatalf("Listen: %v", err)
				}
				if _, err := l.client.Dial("server", 80, &funcs{
					established: func(c *Conn) {
						if _, err := c.Write(request); err != nil {
							t.Errorf("client write: %v", err)
						}
					},
					data: func(c *Conn, b []byte) {
						if gotReply = append(gotReply, b...); len(gotReply) == len(reply) && closer != "server" {
							_ = c.Close()
						}
					},
				}); err != nil {
					t.Fatalf("Dial: %v", err)
				}
				l.net.Run(0)
				lost += l.seg.Lost()
				duplicated += l.seg.Duplicated()
				cell := fmt.Sprintf("%s, %s closes, seed %d", lp.Name, closer, seed)
				if !bytes.Equal(gotReq, request) || !bytes.Equal(gotReply, reply) {
					t.Errorf("%s: server read %d of %d request bytes, client %d of %d reply bytes",
						cell, len(gotReq), len(request), len(gotReply), len(reply))
				}
				if c, s := held(l.client), held(l.server); len(c)+len(s) > 0 {
					t.Errorf("%s: client holds %v, server holds %v", cell, c, s)
				}
			}
		}
		if (lp.Loss > 0 && lost == 0) || (lp.Duplicate > 0 && duplicated == 0) {
			t.Errorf("%s: the link lost %d and duplicated %d frames over 60 cells", lp.Name, lost, duplicated)
		}
	}
}

// TestCloseSendsOneFIN: Close on a connection that has already sent its
// FIN does nothing. A second FIN would take the sequence number past
// the first, so the peer's acknowledgement of the first would not end
// the connection.
func TestCloseSendsOneFIN(t *testing.T) {
	l := newLab(t)
	if err := l.server.Listen(80, accepting(nil)); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := l.client.Dial("server", 80, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	var fins []uint32
	l.seg.AttachTap(0, func(_ time.Duration, pkt netsim.Packet) {
		if seg, err := ParseSegment(pkt.Payload); err == nil && pkt.Src == "client" && seg.Flags&FlagFIN != 0 {
			fins = append(fins, seg.Seq)
		}
	})
	finSeq := conn.sndNxt
	for i := 0; i < 2; i++ {
		if err := conn.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	l.net.Run(0)
	if len(fins) != 1 || fins[0] != finSeq {
		t.Fatalf("client sent FINs at %v, want one at %d", fins, finSeq)
	}
	if c, s := held(l.client), held(l.server); conn.State() != StateClosed || len(c)+len(s) > 0 {
		t.Fatalf("client connection %v; client holds %v, server holds %v", conn.State(), c, s)
	}
}

// TestWriteAfterCloseSendsNothing: once Close has sent the FIN, Write
// returns ErrClosed and puts nothing on the wire (RFC 9293 §3.10.2,
// "connection closing"). No byte follows the FIN, so its
// acknowledgement still covers everything sent and the connection
// leaves its stack, with retransmission and without.
func TestWriteAfterCloseSendsNothing(t *testing.T) {
	for _, retransmit := range []bool{false, true} {
		var opts []StackOption
		if retransmit {
			opts = append(opts, WithRetransmit())
		}
		l := newLab(t, opts...)
		var serverGot []byte
		if err := l.server.Listen(80, accepting(onData(func(b []byte) { serverGot = append(serverGot, b...) }))); err != nil {
			t.Fatalf("Listen: %v", err)
		}
		conn, err := l.client.Dial("server", 80, nil)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		l.net.Run(0)
		if err := conn.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		out := conn.Stats().SegmentsOut
		if n, err := conn.Write([]byte("late")); n != 0 || !errors.Is(err, ErrClosed) {
			t.Errorf("retransmit %v: Write after Close = %d, %v; want 0, ErrClosed", retransmit, n, err)
		}
		if got := conn.Stats().SegmentsOut; got != out {
			t.Errorf("retransmit %v: Write after Close sent %d segments", retransmit, got-out)
		}
		l.net.Run(0)
		if len(serverGot) != 0 {
			t.Errorf("retransmit %v: the server read %q after the FIN", retransmit, serverGot)
		}
		if c, s := held(l.client), held(l.server); conn.State() != StateClosed || len(c)+len(s) > 0 {
			t.Errorf("retransmit %v: client connection %v; client holds %v, server holds %v",
				retransmit, conn.State(), c, s)
		}
	}
}
