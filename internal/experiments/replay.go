package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/core"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/replay"
	"masterparasite/internal/runner"
)

// KillChainOpts parameterize one scripted kill-chain run for capture or
// re-execution.
type KillChainOpts struct {
	// Seed drives every pseudo-random choice in the scenario.
	Seed int64
	// ServerDelay overrides the web/attacker server response delay
	// (0 keeps the scenario default). It is the canonical perturbation
	// knob: re-running a recorded capture with a different delay shifts
	// the wire schedule and the checker pins the first shifted event.
	ServerDelay time.Duration
	// Link installs a network fault profile on the scenario's WiFi
	// segment and enables tcpsim retransmission so the kill chain
	// survives it. nil keeps the historical perfect wire (and the
	// historical wire bytes). A lossy Link is the second perturbation
	// knob: drops and duplicate deliveries appear in the recorded log
	// and change the divergence fingerprint.
	Link *netsim.LinkProfile
}

// RunKillChain executes the full scripted kill chain — cache eviction,
// cache infection + propagation, then C&C from the home network — with
// the replay tap attached. Every wire event and C&C exchange is fed to
// rec and/or chk (either may be nil). This is the same sequence the
// "flows" artifact traces; here it is the canonical record/replay
// workload.
func RunKillChain(opts KillChainOpts, rec *replay.Recorder, chk *replay.Checker) error {
	scfg := core.Config{Seed: opts.Seed, ServerDelay: opts.ServerDelay}
	if opts.Link != nil {
		scfg.Link = opts.Link
		scfg.Retransmit = true
	}
	s, err := core.NewScenario(scfg)
	if err != nil {
		return err
	}
	s.AttachReplay(rec, chk)
	return scriptKillChain(s, "replay", nil)
}

// scriptKillChain stages the scripted kill chain on s and runs its three
// phases, one per message-flow figure: eviction (Fig. 1), infection +
// propagation (Fig. 2), and C&C after the victim leaves the attacker's
// network (Fig. 4). strain names the parasite and its bot ("bot-"+strain);
// both appear in C&C URLs, so the name sets frame sizes. onPhase, when
// non-nil, receives each phase's title just before the phase runs.
func scriptKillChain(s *core.Scenario, strain string, onPhase func(name string)) error {
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600"})
	s.AddPage("top1.com", "/", `<html><body><script src="/persistent.js"></script></body></html>`, nil)
	s.AddPage("top1.com", "/persistent.js", "function lib(){}",
		map[string]string{"Cache-Control": "max-age=600"})
	s.AddPage("any.com", "/", "<html><body>x</body></html>", map[string]string{"Cache-Control": "no-store"})

	bot := "bot-" + strain
	cfg := parasite.NewConfig(strain, bot, core.MasterHost)
	cfg.PropagationTargets = []string{"top1.com"}
	s.Registry.Add(cfg)
	for _, name := range []string{"somesite.com/my.js", "top1.com/persistent.js"} {
		s.Master.AddTarget(attacker.Target{Name: name, Kind: attacker.KindJS,
			ParasitePayload: strain, Original: []byte("function original(){}")})
	}
	s.Master.EnableEviction(core.JunkHost, 4, 1024, "any.com")

	visit := func(name, host string) error {
		if onPhase != nil {
			onPhase(name)
		}
		if _, err := s.Visit(host, "/"); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := visit("Fig. 1: cache eviction", "any.com"); err != nil {
		return err
	}
	if err := visit("Fig. 2: cache infection + propagation", "somesite.com"); err != nil {
		return err
	}
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand(bot, []byte("noop|"))
	return visit("Fig. 4: C&C after moving networks", "top1.com")
}

// replayRow is one seed's record/replay verdict.
type replayRow struct {
	Seed         int64  `json:"seed"`
	Events       int    `json:"events"`
	Sends        int    `json:"sends"`
	CNC          int    `json:"cnc_exchanges"`
	Fingerprint  string `json:"fingerprint"`
	DriveOK      bool   `json:"drive_ok"`
	CompressedOK bool   `json:"compressed_ok"`
	RerunOK      bool   `json:"rerun_ok"`
	PerturbIndex int    `json:"perturb_index"`
	PerturbField string `json:"perturb_field"`
}

// ReplayData is the "replay" artifact dataset.
type ReplayData []replayRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d ReplayData) Table() (header []string, rows [][]string) {
	header = []string{"seed", "events", "sends", "cnc", "fingerprint",
		"drive_ok", "compressed_ok", "rerun_ok", "perturb_index", "perturb_field"}
	for _, r := range d {
		rows = append(rows, []string{
			strconv.FormatInt(r.Seed, 10), fint(r.Events), fint(r.Sends), fint(r.CNC),
			r.Fingerprint, strconv.FormatBool(r.DriveOK), strconv.FormatBool(r.CompressedOK),
			strconv.FormatBool(r.RerunOK), fint(r.PerturbIndex), r.PerturbField,
		})
	}
	return header, rows
}

// perturbDelay is the ServerDelay override used for the deliberate
// divergence: the scenario default is 12 ms, so 15 ms shifts every
// server response and the checker must pin the first shifted event.
const perturbDelay = 15 * time.Millisecond

// ReplayStability is the record/replay verification artifact. For each
// seed it records a full kill-chain run, then requires four verdicts:
// the stub-driven replay reproduces the send-level fingerprint exactly,
// the 8× time-compressed replay still matches, a live re-run checks
// clean against the recording, and a deliberately perturbed re-run
// (slower server) diverges — at an exact, stable event index. The
// rendered rows carry the full fingerprints, so they join the run
// manifest's SHA-256 guarantee: any nondeterminism anywhere in the
// simulation stack breaks this artifact byte-for-byte.
func ReplayStability(env artifact.Env) (*artifact.Result, error) {
	seeds := []int64{97, 271, 997}
	rows, err := runner.Map(env.Runner, seeds, func(_ int, seed int64) (replayRow, error) {
		// Record.
		rec := replay.NewRecorder(nil)
		if err := RunKillChain(KillChainOpts{Seed: seed}, rec, nil); err != nil {
			return replayRow{}, err
		}
		row := replayRow{
			Seed:        seed,
			Events:      rec.Count(),
			Sends:       rec.CountKind(replay.KindSend),
			CNC:         rec.CountKind(replay.KindCNC),
			Fingerprint: rec.Fingerprint(),
		}

		// Stub-driven replay: byte-identical send-level stream.
		res, err := replay.Drive(rec.Events(), 1)
		if err != nil {
			return replayRow{}, err
		}
		row.DriveOK = res.Divergence == nil && res.Fingerprint == res.WantFingerprint

		// 8× time compression preserves the verdict.
		comp, err := replay.Drive(rec.Events(), 8)
		if err != nil {
			return replayRow{}, err
		}
		row.CompressedOK = comp.Divergence == nil

		// Live re-run checks clean against the recording.
		chk := replay.NewChecker(rec.Events())
		if err := RunKillChain(KillChainOpts{Seed: seed}, nil, chk); err != nil {
			return replayRow{}, err
		}
		row.RerunOK = chk.Finish() == nil

		// Perturbed re-run must diverge at an exact index.
		chk = replay.NewChecker(rec.Events())
		if err := RunKillChain(KillChainOpts{Seed: seed, ServerDelay: perturbDelay}, nil, chk); err != nil {
			return replayRow{}, err
		}
		div := chk.Finish()
		if div == nil {
			return replayRow{}, fmt.Errorf("seed %d: perturbed run did not diverge", seed)
		}
		row.PerturbIndex = div.Index
		if fields := div.ChangedFields(); len(fields) > 0 {
			row.PerturbField = fields[0]
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "record/replay fingerprint stability, %d seeds\n\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "seed %-4d  %4d events (%d sends, %d C&C)  fingerprint %s…\n",
			r.Seed, r.Events, r.Sends, r.CNC, r.Fingerprint[:16])
		fmt.Fprintf(&b, "  replay drive: %s   8x compressed: %s   live rerun: %s\n",
			pass(r.DriveOK), pass(r.CompressedOK), pass(r.RerunOK))
		fmt.Fprintf(&b, "  perturbed rerun (server %v vs default): diverges at event #%d (%s)\n",
			perturbDelay, r.PerturbIndex, r.PerturbField)
	}
	fmt.Fprintf(&b, "\nfingerprints are SHA-256 over the canonical wire-event stream; identical\n")
	fmt.Fprintf(&b, "runs reproduce them bit-for-bit at any worker count (see determinism tests)\n")
	return &artifact.Result{Text: b.String(), Dataset: ReplayData(rows)}, nil
}

func pass(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
