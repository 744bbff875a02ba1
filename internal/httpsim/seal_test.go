package httpsim

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// TestXORSealerRoundTrip pins the frame layout and the key rule as well
// as the round trip: the sealed bytes of one request under one host are
// fixed, since the countermeasures artifact's HTTPS rows ride them.
func TestXORSealerRoundTrip(t *testing.T) {
	msg := []byte("GET /account HTTP/1.1\r\n\r\n")
	sealed := Seal("bank.com", msg)
	if bytes.Contains(sealed, []byte("GET")) {
		t.Fatal("plaintext visible in sealed frame")
	}
	// magic | len | tag | body
	const want = "544c5331" + "00000019" + "18aea58a04650af4" +
		"c7494b729118070101d51a4a9a13a7acfff8f4325c9ce45a53"
	if got := hex.EncodeToString(sealed); got != want {
		t.Fatalf("sealed frame = %s, want %s", got, want)
	}
	got, err := Open("bank.com", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestXORSealerRoundTripProperty(t *testing.T) {
	f := func(host string, msg []byte) bool {
		sealed := Seal(host, msg)
		got, err := Open(host, sealed)
		opened, _, errAny := OpenAny([]string{host + "x", host}, sealed)
		return err == nil && bytes.Equal(got, msg) && len(sealed) == sealHeader+len(msg) &&
			errAny == nil && opened == host
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXORSealerWrongKeyRejected(t *testing.T) {
	sealed := Seal("bank.com", []byte("secret"))
	if _, err := Open("evil.com", sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("wrong-key open err = %v, want corrupt", err)
	}
	if _, _, err := OpenAny([]string{"evil.com", "shop.com"}, sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("OpenAny without the host err = %v, want corrupt", err)
	}
	if _, _, err := OpenAny(nil, sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("OpenAny with no hosts err = %v, want corrupt", err)
	}
}

func TestXORSealerIncomplete(t *testing.T) {
	sealed := Seal("k", []byte("hello, this is a message"))
	for cut := 0; cut < len(sealed); cut++ {
		if _, err := Open("k", sealed[:cut]); !errors.Is(err, ErrSealIncomplete) && !errors.Is(err, ErrSealCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
}

func TestXORSealerTamperDetected(t *testing.T) {
	sealed := Seal("k", []byte("amount=100"))
	sealed[len(sealed)-1] ^= 0xFF
	if _, err := Open("k", sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("tampered open err = %v", err)
	}
}

func TestSealedEndToEndDefeatsInjection(t *testing.T) {
	// The §V Discussion in one test: over the sealed channel the
	// attacker's spoofed plaintext poisons the record stream — the
	// channel aborts and the parasite never reaches the HTTP layer (the
	// injection degrades to at worst a DoS). With the fraudulent
	// certificate (= key knowledge) the injection works again.
	run := func(attackerHasCert bool) string {
		n := netsim.New()
		seg := n.MustSegment("wifi", time.Millisecond)
		cIfc := seg.MustAttach("client", 0, nil)
		sIfc := seg.MustAttach("server", 5*time.Millisecond, nil)
		client := NewClient(tcpsim.NewStack(n, cIfc, tcpsim.WithSeed(3)))
		serverStack := tcpsim.NewStack(n, sIfc, tcpsim.WithSeed(5))
		if _, err := NewServer(serverStack, 443, func() []string { return []string{"bank.com"} }, func(*Request) *Response {
			return NewResponse(200, []byte("GENUINE"))
		}); err != nil {
			t.Fatalf("server: %v", err)
		}

		evil := NewResponse(200, []byte("PARASITE")).Marshal()
		var sniffer *tcpsim.Sniffer
		sniffer = tcpsim.NewSniffer(seg, 0, func(o tcpsim.Observed) {
			if o.Seg.DstPort == 443 && len(o.Seg.Payload) > 0 && o.Src == "client" {
				payload := evil
				if attackerHasCert {
					payload = Seal("bank.com", evil)
				}
				sniffer.Tap().Inject(tcpsim.SpoofReply(o, payload))
			}
		})

		body := ""
		client.Do("server", 443, true,
			NewRequest("GET", "bank.com", "/"), func(r *Response, err error) {
				if err != nil {
					body = "CHANNEL-ABORT"
					return
				}
				body = string(r.Body)
			})
		n.Run(0)
		return body
	}

	if got := run(false); got != "CHANNEL-ABORT" {
		t.Fatalf("without cert: client got %q, want CHANNEL-ABORT (no parasite delivered)", got)
	}
	if got := run(true); got != "PARASITE" {
		t.Fatalf("with fraudulent cert: client got %q, want PARASITE", got)
	}
}

func TestSniffersSeeOnlyCiphertext(t *testing.T) {
	req := NewRequest("GET", "mail.com", "/inbox?token=SECRET")
	sealed := Seal("mail.com", req.Marshal())
	for _, needle := range []string{"GET", "SECRET", "mail.com"} {
		if bytes.Contains(sealed, []byte(needle)) {
			t.Fatalf("sealed request leaks %q", needle)
		}
	}
	// All the sniffer learns is that the record is sealed.
	if !LooksSealed(sealed) || LooksSealed(req.Marshal()) {
		t.Fatal("LooksSealed cannot tell the sealed record from its plaintext")
	}
}

// TestServerSealsEachReplyUnderItsRequestHost is a web farm holding two
// hosts' certificates, asked over interleaved connections: each reply
// opens only under the key of the host whose request it answers, and a
// record sealed for a host the server does not hold is never answered.
func TestServerSealsEachReplyUnderItsRequestHost(t *testing.T) {
	n := netsim.New()
	seg := n.MustSegment("lan", time.Millisecond)
	cIfc := seg.MustAttach("client", 0, nil)
	sIfc := seg.MustAttach("server", 2*time.Millisecond, nil)
	client := NewClient(tcpsim.NewStack(n, cIfc, tcpsim.WithSeed(3)))
	hosts := []string{"a-bank.com", "b-shop.com"}
	srv, err := NewServer(tcpsim.NewStack(n, sIfc, tcpsim.WithSeed(5)), 443,
		func() []string { return hosts }, func(req *Request) *Response {
			return NewResponse(200, []byte("for "+req.Host))
		})
	if err != nil {
		t.Fatal(err)
	}
	var replies [][]byte // every sealed record the server sends
	tcpsim.NewSniffer(seg, 0, func(o tcpsim.Observed) {
		if o.Src == "server" && LooksSealed(o.Seg.Payload) {
			replies = append(replies, bytes.Clone(o.Seg.Payload))
		}
	})

	got := make(map[string]string) // request path → body the client opened
	for i, host := range []string{"a-bank.com", "b-shop.com", "a-bank.com", "b-shop.com"} {
		path := fmt.Sprintf("/%d", i)
		client.Do("server", 443, true, NewRequest("GET", host, path), func(r *Response, err error) {
			if err != nil {
				t.Errorf("%s%s: %v", host, path, err)
				return
			}
			got[path] = string(r.Body)
		})
	}
	answered := false
	client.Do("server", 443, true, NewRequest("GET", "plain.com", "/"), func(*Response, error) { answered = true })
	n.Run(0)

	for i, host := range []string{"a-bank.com", "b-shop.com", "a-bank.com", "b-shop.com"} {
		if want := "for " + host; got[fmt.Sprintf("/%d", i)] != want {
			t.Errorf("request %d for %s: client opened %q, want %q", i, host, got[fmt.Sprintf("/%d", i)], want)
		}
	}
	if len(replies) != 4 {
		t.Fatalf("server sent %d sealed replies, want 4", len(replies))
	}
	for i, rec := range replies {
		host, plain, err := OpenAny(hosts, rec)
		if err != nil {
			t.Fatalf("reply %d opens under neither host: %v", i, err)
		}
		if !bytes.HasSuffix(plain, []byte("for "+host)) {
			t.Errorf("reply %d opened under %s but answers %q", i, host, plain)
		}
		for _, other := range hosts {
			if _, err := Open(other, rec); other != host && !errors.Is(err, ErrSealCorrupt) {
				t.Errorf("reply %d for %s opened under %s's key (err=%v)", i, host, other, err)
			}
		}
	}
	if answered || srv.Requests() != 4 {
		t.Fatalf("a request sealed for an unheld host was answered (callback %v, %d requests handled)", answered, srv.Requests())
	}
}

// openAlloc runs OpenAny over in with hosts and reports the bytes it
// allocated.
func openAlloc(hosts []string, in []byte) (string, []byte, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	host, plain, err := OpenAny(hosts, in)
	runtime.ReadMemStats(&after)
	return host, plain, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzOpen holds the TLS stand-in to three properties: opening
// arbitrary bytes never panics and allocates in proportion to the input
// and the keys tried, not to the length a frame claims, and whatever
// opens re-seals to the same frame; Open undoes Seal; and a record
// sealed for one host never opens under another.
// Its seeds are in testdata/fuzz/FuzzOpen.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, host, other string, in []byte) {
		hosts := []string{host, other}
		opened, plain, alloc, err := openAlloc(hosts, in)
		// The constant covers the error value and what the fuzzing
		// engine allocates beside the call.
		if bound := uint64(4*(len(in)+len(host)+len(other)) + 64<<10); alloc > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(in), alloc, bound)
		}
		if err == nil {
			if opened != host && opened != other {
				t.Fatalf("opened under %q, not one of %q", opened, hosts)
			}
			if frame := Seal(opened, plain); !bytes.HasPrefix(in, frame) {
				t.Fatalf("accepted frame does not re-seal to itself under %q", opened)
			}
		} else if !errors.Is(err, ErrSealIncomplete) && !errors.Is(err, ErrSealCorrupt) {
			t.Fatalf("error outside the seal classes: %v", err)
		}

		rec := Seal(host, in)
		back, err := Open(host, rec)
		if err != nil || !bytes.Equal(back, in) {
			t.Fatalf("Open(Seal) under %q: %q, %v", host, back, err)
		}
		if other != host {
			if _, err := Open(other, rec); !errors.Is(err, ErrSealCorrupt) {
				t.Fatalf("record sealed for %q opened under %q (err=%v)", host, other, err)
			}
		}
	})
}
