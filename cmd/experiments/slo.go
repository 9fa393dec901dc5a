package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/span"
	"repro/internal/verdict"
)

// verdictDetection is the seeded single-point run the SLO evaluation (and
// `-run verdict`) classifies: energy detection at a comfortably detectable
// SNR, the regime the paper's reaction guarantees describe.
func verdictDetection(frames int) experiments.DetectionConfig {
	return experiments.DetectionConfig{
		EnergyThresholdDB: 10,
		Kind:              experiments.FullFrame,
		FramesPerPoint:    frames,
		SNRsDB:            []float64{11},
		Seed:              7,
	}
}

// runSLO measures the reaction-latency distribution and the verdict ledger
// on seeded runs, then evaluates the paper-derived SLO budgets. A violated
// budget (or a ledger that fails to reconcile) is an error, which `make
// slo` and `make ci` turn into a failing exit code.
func runSLO(frames int) error {
	fmt.Println("SLO evaluation against the paper's timing budgets (seeded run)")
	res, err := experiments.MeasureReactionLatency(experiments.ReactionConfig{
		Frames: frames, Seed: 7,
	})
	if err != nil {
		return err
	}
	out, err := experiments.RunVerdictLedger(verdictDetection(30))
	if err != nil {
		return err
	}
	if !out.Reconciled {
		return fmt.Errorf("verdict ledger does not reconcile with counter figures "+
			"(counter Pd %v FA %d, ledger Pd %v FA %d)",
			out.CounterPd, out.CounterFalseAlarms, out.LedgerPd, out.LedgerFalseAlarms)
	}

	hr := res.Snapshot.Histogram(telemetry.HistReaction)
	ht := res.Snapshot.Histogram(telemetry.HistTriggerToRF)
	metrics := map[string]float64{
		slo.MetricReactionP99:    float64(hr.P99),
		slo.MetricTriggerToRFP99: float64(ht.P99),
		slo.MetricLateFraction:   out.Ledger.Summary.LateFraction,
		slo.MetricFalseAlarmsSec: out.FalseAlarmsPerSec,
		slo.MetricJournalDropped: float64(res.Snapshot.Dropped),
		// Context rows (not budgeted).
		"reaction_p50_cycles": float64(hr.P50),
		"reaction_frames":     float64(res.Frames),
		"ledger_pd":           out.LedgerPd,
		"ledger_packets":      float64(out.Ledger.Summary.Packets),
	}
	allowance := experiments.WiFiFrontEndGroupDelayCycles()
	rep := slo.Evaluate(slo.DefaultBudgets(allowance), metrics)
	if err := slo.WriteReport(os.Stdout, rep, metrics); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("%d SLO budget(s) violated", len(rep.Failed()))
	}
	fmt.Println("  all budgets met")
	return nil
}

// runVerdict prints the verdict-ledger summary and reconciliation, writing
// the per-packet JSONL ledger when -ledger is set.
func runVerdict(frames int, ledgerPath string) error {
	fmt.Println("per-packet verdict ledger (seeded single-point run)")
	out, err := experiments.RunVerdictLedger(verdictDetection(frames))
	if err != nil {
		return err
	}
	s := out.Ledger.Summary
	fmt.Printf("  SNR %+.1f dB, %d packets: TP %d  FN %d  late %d  FP-engagements %d\n",
		out.SNRdB, s.Packets, s.TP, s.FN, s.Late, s.FPEngagements)
	fmt.Printf("  Pd          counter %.4f   ledger %.4f\n", out.CounterPd, out.LedgerPd)
	fmt.Printf("  det/frame   counter %.4f   ledger %.4f\n",
		out.CounterDetectionsPerFrame, out.LedgerDetectionsPerFrame)
	fmt.Printf("  false alarms counter %d     ledger %d  (%.3f/s over %.2f s)\n",
		out.CounterFalseAlarms, out.LedgerFalseAlarms, out.FalseAlarmsPerSec, out.FACalibrationSec)
	if !out.Reconciled {
		return fmt.Errorf("ledger does not reconcile with counter figures")
	}
	fmt.Println("  reconciled: counter and ledger figures agree bit-for-bit")
	if len(out.Engagements) > 0 {
		fmt.Println("  first engagement span tree:")
		if err := writeIndentedTree(os.Stdout, out); err != nil {
			return err
		}
	}
	if ledgerPath != "" {
		if err := writeFile(ledgerPath, out.Ledger.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("  wrote %d ledger rows to %s\n", len(out.Ledger.Records)+1, ledgerPath)
	}
	return nil
}

func writeIndentedTree(w *os.File, out *experiments.VerdictOutcome) error {
	// Show the first true-positive engagement (falling back to the first).
	eng := &out.Engagements[0]
	for _, rec := range out.Ledger.Records {
		if rec.Class == verdict.TP && rec.Eng != 0 {
			for i := range out.Engagements {
				if out.Engagements[i].ID == rec.Eng {
					eng = &out.Engagements[i]
				}
			}
			break
		}
	}
	return span.WriteTree(w, eng)
}
