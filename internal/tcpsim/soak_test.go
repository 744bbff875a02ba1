package tcpsim

import (
	"testing"
	"time"

	"masterparasite/internal/netsim"
)

// soakReport summarises one long-horizon soak run.
type soakReport struct {
	rounds         int
	events         int
	bytesEchoed    int
	framesAcquired int
	framesReleased int
	wrapCrossed    bool
}

// soakRoundSize is the per-round echo payload of the soak.
const soakRoundSize = 256

// soakEcho is the soak server's connection Handler: it writes every
// byte back.
type soakEcho struct{}

func (soakEcho) Established(*Conn) {}

// Data echoes b. A write fails only once the conn died past the retry
// cap; the client side then stalls and the report's bytesEchoed
// shortfall surfaces it.
func (soakEcho) Data(c *Conn, b []byte) { _, _ = c.Write(b) }

// soakPinger is the soak client's connection Handler: it sends the
// first round once connected, and each next round once the previous
// one has echoed back, up to rounds.
type soakPinger struct {
	chunk        []byte
	rounds       int
	sent, echoed int
}

func (p *soakPinger) Established(c *Conn) {
	p.sent++
	if _, err := c.Write(p.chunk); err != nil {
		p.sent--
	}
}

func (p *soakPinger) Data(c *Conn, b []byte) {
	p.echoed += len(b)
	for p.echoed >= p.sent*soakRoundSize && p.sent < p.rounds {
		p.sent++
		if _, err := c.Write(p.chunk); err != nil {
			p.sent--
			return
		}
	}
}

// runSoak is the long-horizon stability harness: a request/echo
// ping-pong over a lossy, duplicating, jittery link with retransmitting
// stacks whose ISNs start just below 2^32, so the stream crosses the
// sequence wrap within the first few rounds and every later round runs
// in wrapped sequence space. It returns the event count (the caller
// asserts the horizon) and the frame-pool counters (the caller asserts
// the pool drained — a leak grows unboundedly over a million events).
func runSoak(t *testing.T, rounds int, seed int64) soakReport {
	t.Helper()
	lp := netsim.LinkProfile{
		Name: "soak", Loss: 0.05, Duplicate: 0.02,
		Jitter: time.Millisecond, Seed: uint64(seed),
	}
	net := netsim.New()
	seg := net.MustSegment("soak-link", 500*time.Microsecond)
	seg.SetLinkProfile(lp)
	srvIfc := seg.MustAttach("soak-server", time.Millisecond, nil)
	cliIfc := seg.MustAttach("soak-client", 200*time.Microsecond, nil)
	opts := func(s int64) []StackOption {
		return []StackOption{WithSeed(s), WithRetransmit(), withISN(0xFFFFF000), withMSS(512)}
	}
	server := NewStack(net, srvIfc, opts(seed+1)...)
	client := NewStack(net, cliIfc, opts(seed+2)...)

	if err := server.Listen(80, func(*Conn) Handler { return soakEcho{} }); err != nil {
		t.Fatal(err)
	}
	p := &soakPinger{chunk: make([]byte, soakRoundSize), rounds: rounds}
	for i := range p.chunk {
		p.chunk[i] = byte(i)
	}
	conn, err := client.Dial("soak-server", 80, p)
	if err != nil {
		t.Fatal(err)
	}
	events := net.Run(0)
	acquired, released := net.FrameStats()
	return soakReport{
		rounds:         p.sent,
		events:         events,
		bytesEchoed:    p.echoed,
		framesAcquired: acquired,
		framesReleased: released,
		wrapCrossed:    conn.sndNxt < 0x80000000,
	}
}

// soakCheck validates one soak report against the pool-balance and
// wraparound invariants.
func soakCheck(t *testing.T, rounds int, rep soakReport) {
	t.Helper()
	if rep.rounds != rounds || rep.bytesEchoed != rounds*soakRoundSize {
		t.Fatalf("soak stalled: %d/%d rounds, %d bytes echoed", rep.rounds, rounds, rep.bytesEchoed)
	}
	if rep.framesAcquired == 0 || rep.framesAcquired != rep.framesReleased {
		t.Fatalf("frame pool leaked: acquired %d, released %d", rep.framesAcquired, rep.framesReleased)
	}
	if !rep.wrapCrossed {
		t.Fatal("stream never crossed the 2^32 sequence wrap")
	}
}

// TestSoakSmoke is the -short tier (and `make soak-smoke`): a small
// horizon exercising the same wrap + fault + pool invariants.
func TestSoakSmoke(t *testing.T) {
	const rounds = 2000
	soakCheck(t, rounds, runSoak(t, rounds, 9))
}

// TestSoakLongHorizon is the full soak: at least a million simulator
// events over the lossy, duplicating link, with the frame pool drained
// at exit — a per-event leak of even one frame would show up here.
func TestSoakLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event soak; run without -short")
	}
	const rounds = 200_000
	rep := runSoak(t, rounds, 9)
	soakCheck(t, rounds, rep)
	if rep.events < 1_000_000 {
		t.Fatalf("soak processed %d events, want >= 1e6", rep.events)
	}
}
