package main

import (
	"fmt"
	"io"

	"repro/internal/chaos"
)

// runChaos executes the standard fault-campaign sweep — control plus every
// fault class at severities 1..3 — prints the invariant summary table, and
// writes the machine-readable JSONL report. The report is a pure function of
// the seed: running the same seed twice produces byte-identical files, so a
// diff of two reports is a regression signal.
func runChaos(seed int64, frames int, out string) error {
	fmt.Println("fault-injection campaign sweep: seeded chaos plans vs the")
	fmt.Println("datapath invariant catalog (parity, kernel bit-exactness,")
	fmt.Println("Tinit bound, engagement ledger, counter/ledger reconcile,")
	fmt.Println("register readback)")
	results, err := chaos.RunSweep(chaos.SweepConfig{Seed: seed, Frames: frames})
	if err != nil {
		return err
	}

	fmt.Printf("  %-9s %-4s %7s %6s %10s %7s\n",
		"class", "sev", "faults", "held", "degraded", "broken")
	var broken int
	for _, r := range results {
		fmt.Printf("  %-9s %-4d %7d %6d %10d %7d\n",
			r.Class, r.Severity, r.FaultTotal, r.Held, r.Degraded, r.Broken)
		broken += r.Broken
	}

	if out != "" {
		err := writeFile(out, func(w io.Writer) error { return chaos.WriteReport(w, results) })
		if err != nil {
			return err
		}
		fmt.Printf("  report: %s (%d campaigns, seed %d)\n", out, len(results), seed)
	}

	// The control campaign is the hard gate: zero faults, zero tolerance.
	ctl := results[0]
	if ctl.Broken > 0 || ctl.Degraded > 0 {
		return fmt.Errorf("control campaign not clean: %d broken, %d degraded", ctl.Broken, ctl.Degraded)
	}
	if broken > 0 {
		return fmt.Errorf("%d invariant(s) broken across the sweep — datapath bug, not a fault symptom", broken)
	}
	return nil
}
