package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"masterparasite/internal/experiments"
	"masterparasite/internal/netsim"
	"masterparasite/internal/replay"
)

// recordRun captures one scripted kill-chain run into path, writes the
// divergence fingerprint next to it as path+".fp", and prints a summary.
// A non-nil link installs that fault profile on the wire (with tcpsim
// retransmission enabled), so the log captures a degraded-network run.
func recordRun(path string, seed int64, perturb time.Duration, link *netsim.LinkProfile, stdout io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rec := replay.NewRecorder(f)
	runErr := experiments.RunKillChain(experiments.KillChainOpts{Seed: seed, ServerDelay: perturb, Link: link}, rec)
	if closeErr := f.Close(); runErr == nil {
		runErr = closeErr
	}
	if runErr == nil {
		runErr = rec.Err()
	}
	if runErr != nil {
		return fmt.Errorf("record %s: %w", path, runErr)
	}
	fp := rec.Fingerprint()
	if err := os.WriteFile(path+".fp", []byte(fp+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s: seed %d, %d events (%d sends, %d C&C exchanges)\n",
		path, seed, rec.Count(), rec.CountKind(replay.KindSend), rec.CountKind(replay.KindCNC))
	fmt.Fprintf(stdout, "fingerprint %s (written to %s.fp)\n", fp, path)
	return nil
}

// replayRun re-executes the kill chain, records it, and diffs every wire
// event against a recorded log. A clean run prints PASS with the shared
// fingerprint; any difference — e.g. one injected with -perturb — is
// reported at its exact event index and fails the command.
func replayRun(path string, seed int64, perturb time.Duration, link *netsim.LinkProfile, stdout io.Writer) error {
	events, err := replay.ReadLogFile(path)
	if err != nil {
		return err
	}
	rec := replay.NewRecorder(nil)
	if err := experiments.RunKillChain(experiments.KillChainOpts{Seed: seed, ServerDelay: perturb, Link: link}, rec); err != nil {
		return err
	}
	if div := replay.Diff(events, rec.Events()); div != nil {
		fmt.Fprintf(stdout, "replay %s: DIVERGED after %d matching events\n%s\n", path, div.Index, div)
		return fmt.Errorf("replay diverged at event #%d", div.Index)
	}
	fmt.Fprintf(stdout, "replay %s: PASS — %d events reproduced, fingerprint %s\n",
		path, len(events), replay.FingerprintEvents(events))
	return nil
}

// runReplayVerb is the `experiments replay <cmd>` dispatcher for working
// with recorded logs offline: fingerprint, diff, and stub-driven replay.
func runReplayVerb(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: experiments replay fingerprint FILE | diff A B | drive FILE [flags]")
	}
	switch args[0] {
	case "fingerprint":
		if len(args) != 2 {
			return fmt.Errorf("usage: experiments replay fingerprint FILE")
		}
		events, err := replay.ReadLogFile(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s  %s (%d events)\n", replay.FingerprintEvents(events), args[1], len(events))
		return nil

	case "diff":
		if len(args) != 3 {
			return fmt.Errorf("usage: experiments replay diff A B")
		}
		a, err := replay.ReadLogFile(args[1])
		if err != nil {
			return err
		}
		b, err := replay.ReadLogFile(args[2])
		if err != nil {
			return err
		}
		if div := replay.Diff(a, b); div != nil {
			fmt.Fprintf(stdout, "%s\n", div)
			return fmt.Errorf("logs diverge at event #%d", div.Index)
		}
		fmt.Fprintf(stdout, "identical: %d events, fingerprint %s\n", len(a), replay.FingerprintEvents(a))
		return nil

	case "drive":
		fs := flag.NewFlagSet("replay drive", flag.ContinueOnError)
		timeDiv := fs.Int("time-div", 1, "compress virtual time by this divisor")
		if len(args) < 2 {
			return fmt.Errorf("usage: experiments replay drive FILE [flags]")
		}
		if err := fs.Parse(args[2:]); err != nil {
			return err
		}
		events, err := replay.ReadLogFile(args[1])
		if err != nil {
			return err
		}
		res, err := replay.Drive(events, *timeDiv)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "drove %d sends, recaptured %d send-level events\n", res.Sends, res.Events)
		fmt.Fprintf(stdout, "fingerprint %s\nwant        %s\n", res.Fingerprint, res.WantFingerprint)
		if res.Divergence != nil {
			fmt.Fprintf(stdout, "%s\n", res.Divergence)
			return fmt.Errorf("replay diverged at event #%d", res.Divergence.Index)
		}
		fmt.Fprintf(stdout, "PASS — replay reproduced the recorded send stream\n")
		return nil

	default:
		return fmt.Errorf("unknown replay subcommand %q (want fingerprint, diff, or drive)", args[0])
	}
}
