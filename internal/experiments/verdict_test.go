package experiments

import (
	"testing"

	"repro/internal/verdict"
)

// TestVerdictLedgerReconciles is the acceptance check for the verdict
// ledger: the journal-derived Pd / false-alarm figures must equal the
// counter-derived figures bit-for-bit, both within the instrumented run and
// against an uninstrumented CharacterizeDetection run of the identical
// configuration.
func TestVerdictLedgerReconciles(t *testing.T) {
	cfg := DetectionConfig{
		EnergyThresholdDB: 10,
		Kind:              FullFrame,
		FramesPerPoint:    30,
		SNRsDB:            []float64{9}, // marginal: a mix of hits and misses
		Seed:              7,
	}
	out, err := RunVerdictLedger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reconciled {
		t.Fatalf("counter and ledger figures diverge: counter Pd=%v det/frame=%v FA=%d; ledger Pd=%v det/frame=%v FA=%d",
			out.CounterPd, out.CounterDetectionsPerFrame, out.CounterFalseAlarms,
			out.LedgerPd, out.LedgerDetectionsPerFrame, out.LedgerFalseAlarms)
	}

	// The same configuration through the uninstrumented characterization
	// must produce the identical figures: the stimulus is seeded and the
	// recorder must not perturb the datapath.
	det, err := CharacterizeDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Points[0].Pd != out.LedgerPd {
		t.Errorf("ledger Pd = %v, characterization Pd = %v", out.LedgerPd, det.Points[0].Pd)
	}
	if det.Points[0].DetectionsPerFrame != out.LedgerDetectionsPerFrame {
		t.Errorf("ledger det/frame = %v, characterization = %v",
			out.LedgerDetectionsPerFrame, det.Points[0].DetectionsPerFrame)
	}
	if det.FalseAlarmsPerSec != out.FalseAlarmsPerSec {
		t.Errorf("ledger FA/s = %v, characterization FA/s = %v",
			out.FalseAlarmsPerSec, det.FalseAlarmsPerSec)
	}

	// Ledger internal consistency: the class partition covers every packet.
	s := out.Ledger.Summary
	if s.TP+s.FN+s.Late != s.Packets || s.Packets != cfg.FramesPerPoint {
		t.Errorf("class partition %d+%d+%d does not cover %d packets", s.TP, s.FN, s.Late, s.Packets)
	}
	var rows, fpRows int
	for _, rec := range out.Ledger.Records {
		if rec.Packet == -1 {
			fpRows++
			if rec.Class != verdict.FP {
				t.Errorf("packetless row with class %v", rec.Class)
			}
		} else {
			rows++
		}
	}
	if rows != s.Packets || fpRows != s.FPEngagements {
		t.Errorf("ledger rows %d/%d, want %d packets / %d FP", rows, fpRows, s.Packets, s.FPEngagements)
	}
	if s.Pd == 0 || s.Pd == 1 {
		t.Logf("note: Pd = %v at SNR %v — marginal point no longer marginal", s.Pd, out.SNRdB)
	}
}
