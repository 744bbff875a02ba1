package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"masterparasite/internal/netsim"
)

// sampleEvents covers every kind and every field.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindSend, Time: 1500 * time.Microsecond, Segment: "wifi", Src: "victim", Dst: "web",
			Proto: 2, Size: 5, Payload: []byte("hello")},
		{Kind: KindTCP, Time: 1500 * time.Microsecond, Segment: "wifi", Src: "victim", Dst: "web",
			Proto: 2, Size: 3, SrcPort: 49152, DstPort: 80, Seq: 7, Ack: 9, Flags: 0x18},
		{Kind: KindDeliver, Time: 2 * time.Millisecond, Segment: "wifi", Src: "victim", Dst: "web",
			Proto: 2, Size: 5},
		{Kind: KindTap, Time: 2 * time.Millisecond, Segment: "wifi", Src: "victim", Dst: "web",
			Proto: 2, Size: 5},
		{Kind: KindDrop, Time: 3 * time.Millisecond, Segment: "wifi", Src: "web", Dst: "gone",
			Proto: 1, Size: 2, Payload: []byte("xx")},
		{Kind: KindCNC, Time: 4 * time.Millisecond, Bot: "bot-1", Path: "/meta/bot-1.svg",
			Status: 200, Size: 120},
	}
}

// TestLogRoundTrip locks the codec: encode → decode reproduces every
// field of every kind, and the streaming fingerprint equals both the
// hash of the log body and FingerprintEvents of the decoded events.
func TestLogRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for _, e := range events {
		rec.Add(e)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		w := events[i].appendTo(nil)
		g := got[i].appendTo(nil)
		if !bytes.Equal(w, g) {
			t.Errorf("event %d: decoded %+v, want %+v", i, got[i], events[i])
		}
	}
	// Streaming fingerprint == hash of the log body == recomputation
	// from the decoded events.
	sum := sha256.Sum256(buf.Bytes()[5:])
	if fp := rec.Fingerprint(); fp != hex.EncodeToString(sum[:]) {
		t.Errorf("streaming fingerprint %s != log-body hash", fp)
	}
	if fp := FingerprintEvents(got); fp != rec.Fingerprint() {
		t.Errorf("recomputed fingerprint %s != streaming %s", fp, rec.Fingerprint())
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("not a log at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Add(sampleEvents()[0])
	if _, err := ReadLog(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("truncated log accepted")
	}
}

// captureRun drives a deterministic two-host exchange and records it.
func captureRun(t *testing.T, extraLatency time.Duration) *Recorder {
	t.Helper()
	net := netsim.New()
	seg := net.MustSegment("lan", 100*time.Microsecond+extraLatency)
	var b *netsim.Interface
	a := seg.MustAttach("a", 0, nil)
	b = seg.MustAttach("b", 0, func(now time.Duration, pkt netsim.Packet) {
		if string(pkt.Payload) == "ping" {
			b.Send(netsim.Packet{Dst: "a", Proto: netsim.ProtoRaw, Payload: []byte("pong")})
		}
	})
	a.SetHandler(func(time.Duration, netsim.Packet) {})
	rec := NewRecorder(nil)
	NewTap(rec, nil).Attach(net)
	a.Send(netsim.Packet{Dst: "b", Proto: netsim.ProtoRaw, Payload: []byte("ping")})
	net.Run(0)
	return rec
}

// TestCheckerReportsExactIndex perturbs the link latency and asserts the
// live checker pins the divergence to the first affected event — and
// that the index matches an offline Diff of the two logs.
func TestCheckerReportsExactIndex(t *testing.T) {
	base := captureRun(t, 0)
	pert := captureRun(t, 50*time.Microsecond)
	if base.Fingerprint() == pert.Fingerprint() {
		t.Fatal("perturbed run fingerprints identically")
	}

	// Identical re-run: no divergence.
	chk := NewChecker(base.Events())
	for _, ev := range captureRun(t, 0).Events() {
		chk.observe(ev)
	}
	if d := chk.Finish(); d != nil {
		t.Fatalf("identical rerun diverged: %s", d)
	}

	offline := Diff(base.Events(), pert.Events())
	if offline == nil {
		t.Fatal("offline diff found no divergence")
	}
	chk = NewChecker(base.Events())
	for _, ev := range pert.Events() {
		chk.observe(ev)
	}
	live := chk.Finish()
	if live == nil {
		t.Fatal("live checker found no divergence")
	}
	if live.Index != offline.Index {
		t.Fatalf("live divergence at #%d, offline at #%d", live.Index, offline.Index)
	}
	// The sends at t=0 are unaffected; the first delivery (delayed by the
	// perturbation) is the first divergent event.
	if live.Recorded == nil || live.Live == nil {
		t.Fatalf("divergence should carry both events: %s", live)
	}
	if live.Recorded.Kind != KindDeliver {
		t.Errorf("divergent event kind = %s, want deliver", live.Recorded.Kind)
	}
	if live.Recorded.Time == live.Live.Time {
		t.Errorf("divergence is not the timing change: %s", live)
	}
}

func TestCheckerFlagsTruncationAndExtra(t *testing.T) {
	events := captureRun(t, 0).Events()

	chk := NewChecker(events)
	for _, ev := range events[:len(events)-1] {
		chk.observe(ev)
	}
	d := chk.Finish()
	if d == nil || d.Index != len(events)-1 || d.Live != nil {
		t.Fatalf("truncation not flagged: %v", d)
	}

	chk = NewChecker(events[:len(events)-1])
	for _, ev := range events {
		chk.observe(ev)
	}
	d = chk.Finish()
	if d == nil || d.Index != len(events)-1 || d.Recorded != nil {
		t.Fatalf("extra event not flagged: %v", d)
	}
}

// TestDriveReproducesFingerprint replays a recorded run through stub
// endpoints and requires the send-level stream to reproduce exactly —
// also under 10× time compression.
func TestDriveReproducesFingerprint(t *testing.T) {
	rec := captureRun(t, 0)
	res, err := Drive(rec.Events(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence != nil {
		t.Fatalf("faithful drive diverged: %s", res.Divergence)
	}
	if res.Fingerprint != res.WantFingerprint {
		t.Fatalf("drive fingerprint %s != want %s", res.Fingerprint, res.WantFingerprint)
	}
	if want := FingerprintEvents(Filter(rec.Events(), KindSend, KindTCP)); res.Fingerprint != want {
		t.Fatalf("drive fingerprint %s != log send-level fingerprint %s", res.Fingerprint, want)
	}

	comp, err := Drive(rec.Events(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Divergence != nil {
		t.Fatalf("time-compressed drive diverged: %s", comp.Divergence)
	}
	if comp.Fingerprint == res.Fingerprint {
		t.Fatal("compression did not change timestamps (TimeDiv ignored?)")
	}
}

// TestDriveFlagsTamperedLogAtExactIndex corrupts the recorded size of
// one send: Drive re-injects the send's real payload, whose re-captured
// size disagrees with the log, so the divergence must be pinned to
// exactly that event — at original timing and under compression alike.
func TestDriveFlagsTamperedLogAtExactIndex(t *testing.T) {
	events := append([]Event(nil), captureRun(t, 0).Events()...)
	second := -1
	for i, seen := 0, 0; i < len(events); i++ {
		if events[i].Kind == KindSend {
			if seen++; seen == 2 {
				second = i
				break
			}
		}
	}
	if second < 0 {
		t.Fatal("capture produced fewer than 2 sends")
	}
	events[second].Size++
	// Position of the tampered send in the send-level stream Drive checks.
	want := len(Filter(events[:second], KindSend, KindTCP))

	for _, div := range []int{1, 8} {
		res, err := Drive(events, div)
		if err != nil {
			t.Fatal(err)
		}
		if res.Divergence == nil || res.Divergence.Index != want {
			t.Fatalf("time-div %d: divergence = %v, want index %d", div, res.Divergence, want)
		}
	}
}

// TestWireTapSeesDrops asserts the wire tap records what never made it:
// a frame addressed to a host that has left the network (receive drop,
// the path NIC churn takes).
func TestWireTapSeesDrops(t *testing.T) {
	net := netsim.New()
	seg := net.MustSegment("lan", 0)
	a := seg.MustAttach("a", 0, nil)
	b := seg.MustAttach("b", 0, func(time.Duration, netsim.Packet) {
		t.Error("a receive-dropped host got a frame")
	})
	rec := NewRecorder(nil)
	NewTap(rec, nil).Attach(net)
	b.SetReceiveDrop(true)
	a.Send(netsim.Packet{Dst: "b", Proto: netsim.ProtoRaw, Payload: []byte("lost")})
	net.Run(0)
	if rec.CountKind(KindDrop) != 1 {
		t.Fatalf("drop not recorded: %+v", rec.Events())
	}
	for _, ev := range rec.Events() {
		if ev.Kind == KindDrop && string(ev.Payload) != "lost" {
			t.Fatalf("drop event wrong: %+v", ev)
		}
	}
}
