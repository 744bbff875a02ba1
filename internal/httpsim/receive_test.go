package httpsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"masterparasite/internal/tcpsim"
)

// receiveHost is the host the receive-path tests seal records under.
const receiveHost = "bank.example"

// receiveCorpus is every wire seed, valid and malformed, plus messages
// that stress assembly: a body several segments long, a head longer
// than one segment, bytes trailing a complete message, and a
// Content-Length no body will ever meet.
func receiveCorpus() [][]byte {
	big := NewResponse(200, bytes.Repeat([]byte("j"), 4096))
	big.Header.Set("Content-Type", "image/jpeg")
	longHead := NewResponse(200, []byte("after a long head"))
	longHead.Header.Set("Set-Cookie", strings.Repeat("c", 2*tcpsim.DefaultMSS))
	upload := NewRequest("POST", "bank.example", "/transfer")
	upload.Header.Set("Cookie", strings.Repeat("s", 2*tcpsim.DefaultMSS))
	upload.Body = bytes.Repeat([]byte("to=mallory&"), 300)
	corpus := append(wireSeeds(),
		big.Marshal(), longHead.Marshal(), upload.Marshal(),
		append(NewResponse(200, []byte("first")).Marshal(), "HTTP/1.1 200 OK\r\n\r\n"...),
		append(NewRequest("GET", "a.com", "/").Marshal(), "GET /again HTTP/1.1\r\n\r\n"...),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\npartial"),
		[]byte("POST / HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\npartial"),
	)
	for _, m := range slices.Clone(corpus) {
		corpus = append(corpus, m[:len(m)/2]) // cut short
	}
	return corpus
}

// sealedCorpus seals each plaintext message under receiveHost and adds
// frames the seal layer must refuse or wait for.
func sealedCorpus(plain [][]byte) [][]byte {
	var out [][]byte
	for _, m := range plain {
		out = append(out, Seal(receiveHost, m))
	}
	good := Seal(receiveHost, NewResponse(200, []byte("sealed")).Marshal())
	tampered := bytes.Clone(good)
	tampered[len(tampered)-1] ^= 1
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	return append(out,
		tampered, badMagic,
		Seal("other.example", NewResponse(200, []byte("wrong key")).Marshal()),
		good[:sealHeader-1], good[:sealHeader], good[:len(good)-1],
		append(bytes.Clone(good), good...),
	)
}

// cuts splits wire into the pieces one Data call each delivers: byte by
// byte, in MSS-sized pieces, and at seeded random points.
func cuts(wire []byte, rng *rand.Rand) map[string][][]byte {
	chunk := func(n int) [][]byte {
		var out [][]byte
		for b := wire; len(b) > 0; b = b[min(n, len(b)):] {
			out = append(out, b[:min(n, len(b))])
		}
		return out
	}
	var random [][]byte
	for b := wire; len(b) > 0; {
		n := 1 + rng.Intn(min(len(b), 2*tcpsim.DefaultMSS))
		random, b = append(random, b[:n]), b[n:]
	}
	return map[string][][]byte{"byte": chunk(1), "mss": chunk(tcpsim.DefaultMSS), "random": random}
}

// deliver hands each piece to data the way tcpsim does: from a scratch
// buffer that is overwritten as soon as the call returns, so a handler
// that keeps a delivered byte without copying it is caught.
func deliver(pieces [][]byte, data func([]byte)) {
	scratch := make([]byte, 2*tcpsim.DefaultMSS)
	for _, p := range pieces {
		n := copy(scratch, p)
		data(scratch[:n])
		for i := range scratch {
			scratch[i] = 0xAA
		}
	}
}

func sameResponse(got, want *Response) bool {
	return got.StatusCode == want.StatusCode && got.Status == want.Status &&
		slices.Equal(got.Header, want.Header) && bytes.Equal(got.Body, want.Body) &&
		cap(got.Body) == len(got.Body)
}

func sameRequest(got, want *Request) bool {
	return got.Method == want.Method && got.Path == want.Path && got.Host == want.Host &&
		slices.Equal(got.Header, want.Header) && bytes.Equal(got.Body, want.Body) &&
		cap(got.Body) == len(got.Body)
}

// TestExchangeMatchesParseResponse feeds every plaintext and sealed
// response to an exchange in every split, and requires the callback to
// see exactly what ParseResponse makes of the whole bytes (or, sealed,
// of what Open makes of them): the same message, once; the seal
// layer's error for a forged frame; nothing for a message that is
// malformed or never completes.
func TestExchangeMatchesParseResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	plain := receiveCorpus()
	for _, tls := range []bool{false, true} {
		corpus := plain
		if tls {
			corpus = sealedCorpus(plain)
		}
		for _, wire := range corpus {
			want, wantErr := wantResponse(wire, tls)
			for name, pieces := range cuts(wire, rng) {
				var got []*Response
				var gotErr []error
				x := &exchange{tls: tls, req: NewRequest("GET", receiveHost, "/"), cb: func(r *Response, err error) {
					got, gotErr = append(got, r), append(gotErr, err)
				}}
				deliver(pieces, func(b []byte) { x.Data(nil, b) })
				label := fmt.Sprintf("tls=%v %s %.40q", tls, name, wire)
				switch {
				case want == nil && wantErr == nil:
					if len(got) != 0 {
						t.Fatalf("%s: callback ran %d times (%+v, %v), want never", label, len(got), got[0], gotErr[0])
					}
				case len(got) != 1:
					t.Fatalf("%s: callback ran %d times, want once", label, len(got))
				case wantErr != nil:
					if gotErr[0] == nil || gotErr[0].Error() != "httpsim client: "+wantErr.Error() {
						t.Fatalf("%s: err %v, want %v", label, gotErr[0], wantErr)
					}
				case gotErr[0] != nil || !sameResponse(got[0], want):
					t.Fatalf("%s:\n got %+v (%v)\nwant %+v", label, got[0], gotErr[0], want)
				}
			}
		}
	}
}

// wantResponse is what an exchange must hand its callback for the whole
// bytes wire: a response, an error, or neither.
func wantResponse(wire []byte, tls bool) (*Response, error) {
	if tls {
		plaintext, err := Open(receiveHost, wire)
		if errors.Is(err, ErrSealIncomplete) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		wire = plaintext
	}
	resp, _, err := ParseResponse(wire)
	if err != nil {
		return nil, nil
	}
	return resp, nil
}

// TestServerConnMatchesParseRequest is TestExchangeMatchesParseResponse
// for a server connection: the handler must see exactly the request
// ParseRequest makes of the whole bytes (sealed: of what OpenAny makes
// of them), once, or nothing.
func TestServerConnMatchesParseRequest(t *testing.T) {
	n, _, client, serverStack := newHTTPLab(t)
	// A live connection for the answers: after the first, the server
	// has closed it, but writing in FIN_WAIT still succeeds.
	var conn *tcpsim.Conn
	if err := serverStack.Listen(81, func(c *tcpsim.Conn) tcpsim.Handler { conn = c; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := client.stack.Dial("server", 81, nil); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if conn == nil || conn.State() != tcpsim.StateEstablished {
		t.Fatal("no established connection to answer on")
	}

	rng := rand.New(rand.NewSource(29))
	plain := receiveCorpus()
	hosts := []string{"other.example", receiveHost}
	for _, tls := range []bool{false, true} {
		corpus := plain
		var certs func() []string
		if tls {
			corpus = sealedCorpus(plain)
			certs = func() []string { return hosts }
		}
		for _, wire := range corpus {
			want := wantRequest(wire, tls, hosts)
			for name, pieces := range cuts(wire, rng) {
				var got []*Request
				s := &Server{certs: certs, handler: func(r *Request) *Response {
					got = append(got, r)
					return NewResponse(204, nil)
				}}
				sc := &serverConn{s: s}
				deliver(pieces, func(b []byte) { sc.Data(conn, b) })
				label := fmt.Sprintf("tls=%v %s %.40q", tls, name, wire)
				switch {
				case want == nil:
					if len(got) != 0 {
						t.Fatalf("%s: handler ran %d times (%+v), want never", label, len(got), got[0])
					}
				case len(got) != 1:
					t.Fatalf("%s: handler ran %d times, want once", label, len(got))
				case !sameRequest(got[0], want):
					t.Fatalf("%s:\n got %+v\nwant %+v", label, got[0], want)
				}
			}
		}
	}
}

// wantRequest is the request a server connection must hand its handler
// for the whole bytes wire, or nil.
func wantRequest(wire []byte, tls bool, hosts []string) *Request {
	if tls {
		_, plaintext, err := OpenAny(hosts, wire)
		if err != nil {
			return nil
		}
		wire = plaintext
	}
	req, _, err := ParseRequest(wire)
	if err != nil {
		return nil
	}
	return req
}

// dataAlloc runs data over b and reports the bytes it allocated.
func dataAlloc(data func([]byte), b []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data(b)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAnnouncedLengthReservesAtMostWindow pins the cap on what a head
// can make the receive path reserve. The head is the peer's word, and
// on a plaintext flow the peer may be the master's injection: a
// Content-Length of 1 TiB, or a sealed frame claiming up to 1 GiB,
// reserves at most tcpsim.DefaultWindow bytes ahead of the bytes
// received, and a frame claiming 2³²−1 bytes is refused before anything
// is reserved. The bytes allocated are the fewest of several runs, each
// on a fresh exchange and server connection: TotalAlloc also counts
// what the runtime allocates beside the call now and then, while an
// over-reservation by the receive path shows in every run.
func TestAnnouncedLengthReservesAtMostWindow(t *testing.T) {
	const runs = 5
	frame := func(n uint32) []byte {
		b := make([]byte, sealHeader)
		copy(b, sealMagic[:])
		binary.BigEndian.PutUint32(b[4:8], n)
		return append(b, "ciphertext"...)
	}
	for _, c := range []struct {
		name    string
		tls     bool
		head    []byte
		refused bool
	}{
		{"response", false, []byte("HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nbody"), false},
		{"request", false, []byte("POST /up HTTP/1.1\r\nHost: a.com\r\nContent-Length: 1099511627776\r\n\r\nbody"), false},
		{"sealed 1 GiB", true, frame(1 << 30), false},
		{"sealed 2^32-1", true, frame(1<<32 - 1), true},
	} {
		least := map[string]uint64{"exchange": math.MaxUint64, "server": math.MaxUint64}
		for run := 0; run < runs; run++ {
			var calls int
			var cbErr error
			x := &exchange{tls: c.tls, req: NewRequest("POST", receiveHost, "/up"), cb: func(_ *Response, err error) { calls, cbErr = calls+1, err }}
			var certs func() []string
			if c.tls {
				certs = func() []string { return []string{receiveHost} }
			}
			sc := &serverConn{s: &Server{certs: certs, handler: func(*Request) *Response { calls++; return nil }}}
			for side, in := range map[string]*inbound{"exchange": &x.in, "server": &sc.in} {
				data := func(b []byte) { x.Data(nil, b) }
				if side == "server" {
					data = func(b []byte) { sc.Data(nil, b) }
				}
				least[side] = min(least[side], dataAlloc(data, c.head))
				if ahead := cap(in.buf) - len(in.buf); ahead > tcpsim.DefaultWindow {
					t.Errorf("%s to %s: %d bytes reserved ahead of the %d received", c.name, side, ahead, len(in.buf))
				}
				if c.refused && cap(in.buf) != 0 {
					t.Errorf("%s to %s: refused frame reserved %d bytes", c.name, side, cap(in.buf))
				}
			}
			switch {
			case c.refused && (calls != 1 || !errors.Is(cbErr, ErrSealCorrupt)):
				t.Errorf("%s: %d calls, err %v; want the exchange to fail with ErrSealCorrupt", c.name, calls, cbErr)
			case !c.refused && calls != 0:
				t.Errorf("%s: %d calls for a message that never completes", c.name, calls)
			}
		}
		for side, alloc := range least {
			if limit := uint64(tcpsim.DefaultWindow + 4<<10); alloc > limit {
				t.Errorf("%s to %s: %d bytes allocated, want at most %d", c.name, side, alloc, limit)
			}
		}
	}
}
