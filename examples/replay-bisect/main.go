// Replay-bisect: pinpoint a behavioural change by its first divergent
// wire event.
//
// We record the scripted kill chain (the same Table I-style run the
// "replay" artifact verifies), re-run it against the recording to show
// the divergence fingerprint reproduces bit-for-bit, then perturb one
// knob — the genuine server answers 3 ms slower — and let the checker
// name the exact event where behaviour first changed, with a
// before/after field diff. That index is the bisection answer: every
// event before it is identical, so whatever changed acts there.
//
//	go run ./examples/replay-bisect
package main

import (
	"fmt"
	"log"
	"time"

	"masterparasite/internal/experiments"
	"masterparasite/internal/replay"
)

func main() {
	// 1. Record the baseline: every frame send, delivery, drop, TCP
	//    segment, and C&C exchange, in one canonical stream.
	rec := replay.NewRecorder(nil)
	if err := experiments.RunKillChain(experiments.KillChainOpts{Seed: 97}, rec, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded kill chain: %d events (%d sends, %d C&C exchanges)\n",
		rec.Count(), rec.CountKind(replay.KindSend), rec.CountKind(replay.KindCNC))
	fmt.Printf("fingerprint: %s\n\n", rec.Fingerprint())

	// 2. Re-run, checking live against the recording. Determinism means
	//    a clean pass — same seed, same events, same fingerprint.
	chk := replay.NewChecker(rec.Events())
	if err := experiments.RunKillChain(experiments.KillChainOpts{Seed: 97}, nil, chk); err != nil {
		log.Fatal(err)
	}
	if d := chk.Finish(); d != nil {
		log.Fatalf("identical re-run diverged!?\n%s", d)
	}
	fmt.Println("re-run against the recording: PASS (all events identical)")

	// 3. Stub-driven replay at 8× time compression: the recorded sends
	//    are re-injected at t/8 with the outbound legs stubbed out, and
	//    the send-level stream still reproduces exactly.
	res, err := replay.Drive(rec.Events(), 8)
	if err != nil {
		log.Fatal(err)
	}
	if res.Divergence != nil {
		log.Fatalf("compressed replay diverged!?\n%s", res.Divergence)
	}
	fmt.Println("8x compressed stub replay:     PASS (send stream reproduced)")

	// 4. Now the bisection: something changed — here, the genuine web
	//    server got 3 ms slower. Which wire event does it first affect?
	chk = replay.NewChecker(rec.Events())
	err = experiments.RunKillChain(
		experiments.KillChainOpts{Seed: 97, ServerDelay: 15 * time.Millisecond}, nil, chk)
	if err != nil {
		log.Fatal(err)
	}
	div := chk.Finish()
	if div == nil {
		log.Fatal("perturbed run did not diverge!?")
	}
	fmt.Printf("\nperturbed run (server 12ms → 15ms):\n%s\n", div)
	fmt.Printf("\nevents 0..%d are identical — the change acts at event #%d\n",
		div.Index-1, div.Index)
}
