package httpsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

func TestXORSealerRoundTrip(t *testing.T) {
	s := XORSealer{Key: HostKey("bank.com")}
	msg := []byte("GET /account HTTP/1.1\r\n\r\n")
	sealed := s.Seal(msg)
	if bytes.Contains(sealed, []byte("GET")) {
		t.Fatal("plaintext visible in sealed frame")
	}
	got, n, err := s.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sealed) || !bytes.Equal(got, msg) {
		t.Fatalf("round trip: n=%d got=%q", n, got)
	}
}

func TestXORSealerRoundTripProperty(t *testing.T) {
	f := func(key string, msg []byte) bool {
		s := XORSealer{Key: key}
		got, n, err := s.Open(s.Seal(msg))
		return err == nil && n == len(s.Seal(msg)) && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXORSealerWrongKeyRejected(t *testing.T) {
	sealed := XORSealer{Key: HostKey("bank.com")}.Seal([]byte("secret"))
	if _, _, err := (XORSealer{Key: HostKey("evil.com")}).Open(sealed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("wrong-key open err = %v, want corrupt", err)
	}
}

func TestXORSealerIncomplete(t *testing.T) {
	s := XORSealer{Key: "k"}
	sealed := s.Seal([]byte("hello, this is a message"))
	for cut := 0; cut < len(sealed); cut++ {
		if _, _, err := s.Open(sealed[:cut]); !errors.Is(err, ErrSealIncomplete) && !errors.Is(err, ErrSealCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
}

func TestXORSealerTamperDetected(t *testing.T) {
	s := XORSealer{Key: "k"}
	sealed := s.Seal([]byte("amount=100"))
	sealed[len(sealed)-1] ^= 0xFF
	if _, _, err := s.Open(sealed); !errors.Is(err, ErrSealCorrupt) {
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
		key := HostKey("bank.com")
		if _, err := NewServer(serverStack, 443, XORSealer{Key: key}, func(*Request) *Response {
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
					payload = XORSealer{Key: key}.Seal(evil)
				}
				sniffer.Tap().Inject(tcpsim.SpoofReply(o, payload))
			}
		})

		body := ""
		client.Do("server", 443, XORSealer{Key: key},
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
	s := XORSealer{Key: HostKey("mail.com")}
	req := NewRequest("GET", "mail.com", "/inbox?token=SECRET")
	sealed := s.Seal(req.Marshal())
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
