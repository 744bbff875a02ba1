package replay

import (
	"fmt"
	"time"

	"masterparasite/internal/netsim"
)

// DriveResult is a replay run's outcome.
type DriveResult struct {
	// Sends is how many sends were re-driven.
	Sends int
	// Events is the size of the re-captured send-level stream.
	Events int
	// Fingerprint is the divergence fingerprint of the re-captured
	// stream; WantFingerprint is the fingerprint of the log's (time-
	// normalized) send-level stream. They are equal iff Divergence is
	// nil.
	Fingerprint     string
	WantFingerprint string
	// Divergence pins the first behavioural difference, nil when the
	// replay reproduced the log exactly.
	Divergence *Divergence
}

// Drive re-drives a recorded run. The log's send events are the ground
// truth of what went onto the wire; Drive re-injects each of them, at
// its recorded virtual time, into a fresh live netsim.Network whose
// endpoints are stubs — the outbound legs of the original run (browser,
// servers, C&C handlers) do not execute. The re-driven traffic is
// re-captured through the same canonical tap, so the send-level stream
// must reproduce the log exactly: any difference is reported as a
// divergence at the exact event index. Perturbed runs are recorded, not
// re-driven: LinkProfile loss and duplication fault the wire,
// core.Config.ServerDelay slows the server, and Diff or a live Checker
// pins where the perturbed log departs.
//
// timeDiv compresses virtual time by an integer divisor (InfernoSIM's
// --time-scale): every send is re-driven at time/timeDiv, and the
// comparison stream is normalized the same way, so ordering — and the
// verdict — are preserved under compression. 0 or 1 replays at
// original timing, where the re-captured send-level fingerprint must
// equal the log's.
func Drive(events []Event, timeDiv int) (*DriveResult, error) {
	if timeDiv < 1 {
		timeDiv = 1
	}
	// The expectation: the log's send-level stream, time-normalized to
	// match the compressed schedule.
	want := normalizeTimes(Filter(events, KindSend, KindTCP), timeDiv)

	net := netsim.New()
	segs := make(map[string]*netsim.Segment)
	taps := make(map[string]*netsim.Tap)
	stubs := make(map[string]map[string]bool) // segment → stubbed addrs
	for i := range events {
		ev := &events[i]
		if ev.Kind != KindSend {
			continue
		}
		seg, ok := segs[ev.Segment]
		if !ok {
			// Zero latency everywhere: timing comes from the recorded
			// schedule, not from re-modelled links.
			seg = net.MustSegment(ev.Segment, 0)
			segs[ev.Segment] = seg
			taps[ev.Segment] = seg.AttachTap(0, nil)
			stubs[ev.Segment] = make(map[string]bool)
		}
		if !stubs[ev.Segment][ev.Dst] {
			stubs[ev.Segment][ev.Dst] = true
			// The stubbed outbound leg: receives and discards, so
			// deliveries complete without running any real endpoint.
			if _, err := seg.Attach(netsim.Addr(ev.Dst), 0, func(time.Duration, netsim.Packet) {}); err != nil {
				return nil, fmt.Errorf("replay: stub %s on %s: %w", ev.Dst, ev.Segment, err)
			}
		}
	}

	rec := NewRecorder(nil)
	chk := NewChecker(want)
	tap := NewTap(rec, chk)
	tap.keep = func(k Kind) bool { return k == KindSend || k == KindTCP }
	tap.Attach(net)

	for i := range events {
		ev := &events[i]
		if ev.Kind != KindSend {
			continue
		}
		at := time.Duration(int64(ev.Time) / int64(timeDiv))
		pkt := netsim.Packet{
			Src: netsim.Addr(ev.Src), Dst: netsim.Addr(ev.Dst),
			Proto: netsim.Protocol(ev.Proto), Payload: ev.Payload,
		}
		t := taps[ev.Segment]
		net.Schedule(at, func() { t.Inject(pkt) })
	}
	net.Run(0)

	return &DriveResult{
		Sends:           rec.CountKind(KindSend),
		Events:          rec.Count(),
		Fingerprint:     rec.Fingerprint(),
		WantFingerprint: FingerprintEvents(want),
		Divergence:      chk.Finish(),
	}, nil
}
