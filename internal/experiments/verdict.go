package experiments

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trigger"
	"repro/internal/verdict"
)

// The verdict-ledger experiment runs the §3.2 detection methodology for a
// single SNR point — the false-alarm calibration and the point of
// CharacterizeDetection themselves — with the telemetry journal capturing
// every engagement, then classifies each transmitted frame from the journal
// alone and reconciles the ledger's Pd / false-alarm figures against the
// counter-delta figures the characterization computes. Both views observe
// the same datapath run, so they must agree bit-for-bit; any divergence is
// an instrumentation bug (lost journal events, mis-stamped clocks, window
// misattribution), which is exactly what the reconciliation exists to
// catch.

// VerdictOutcome is the ledger plus both sets of figures.
type VerdictOutcome struct {
	// SNRdB is the measured point.
	SNRdB float64
	// Event is the resolved detection event the figures count.
	Event trigger.Event
	// Packets is the ground truth: one clock window per transmitted frame.
	Packets []verdict.Packet
	// Engagements is the reconstructed engagement list of the Pd phase.
	Engagements []span.Engagement
	// Ledger is the merged classification result: per-packet rows from the
	// Pd phase followed by false-positive rows from the noise-only
	// calibration phase.
	Ledger *verdict.Result

	// Counter-based figures, computed per CharacterizeDetection: per-frame
	// counter deltas for Pd, the raw counter for false alarms.
	CounterPd                 float64
	CounterDetectionsPerFrame float64
	CounterFalseAlarms        uint64
	// Ledger-based figures derived purely from journal windows.
	LedgerPd                 float64
	LedgerDetectionsPerFrame float64
	LedgerFalseAlarms        uint64
	// FalseAlarmsPerSec and FACalibrationSec mirror DetectionResult.
	FalseAlarmsPerSec float64
	FACalibrationSec  float64
	// Reconciled reports bit-for-bit agreement of every paired figure.
	Reconciled bool
}

// detectionKind maps a trigger event to the telemetry edge kind its counter
// counts.
func detectionKind(ev trigger.Event) telemetry.EventKind {
	switch ev {
	case trigger.EventXCorr:
		return telemetry.EvXCorrEdge
	case trigger.EventEnergyLow:
		return telemetry.EvEnergyLowEdge
	default:
		return telemetry.EvEnergyHighEdge
	}
}

// RunVerdictLedger runs the instrumented single-point characterization of
// d, which must hold exactly one SNR point, and returns the reconciled
// ledger. The run fails if a journal of telemetry.DefaultJournalDepth
// events drops any, since a truncated journal cannot reconcile.
func RunVerdictLedger(d DetectionConfig) (*VerdictOutcome, error) {
	if d.FramesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: FramesPerPoint must be positive")
	}
	if len(d.SNRsDB) != 1 {
		return nil, fmt.Errorf("experiments: verdict ledger runs exactly one SNR point, got %d", len(d.SNRsDB))
	}
	snr := d.SNRsDB[0]

	// Phase 1: the noise-only false-alarm calibration, on its own radio
	// and journal.
	faLive := telemetry.NewLive(telemetry.DefaultJournalDepth)
	counterFA, faSec, ev, err := falseAlarms(d, faLive)
	if err != nil {
		return nil, err
	}
	if dropped := faLive.Dropped(); dropped != 0 {
		return nil, fmt.Errorf("experiments: FA journal dropped %d events", dropped)
	}
	kind := detectionKind(ev)
	// With no ground-truth packets, every engagement is a false positive and
	// every configured-kind edge a false alarm.
	faResult, err := verdict.Classify(nil, span.Build(faLive.Events()),
		verdict.Options{Kinds: []telemetry.EventKind{kind}})
	if err != nil {
		return nil, err
	}

	// Phase 2: the Pd point on a fresh radio, each frame's clock window
	// journaled alongside the per-frame counter deltas.
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	packets := make([]verdict.Packet, 0, d.FramesPerPoint)
	pt, err := detectionPoint(d, snr, live, func(start, end uint64) {
		packets = append(packets, verdict.Packet{Index: len(packets), Start: start, End: end})
	})
	if err != nil {
		return nil, err
	}
	if dropped := live.Dropped(); dropped != 0 {
		return nil, fmt.Errorf("experiments: journal dropped %d events", dropped)
	}

	engs := span.Build(live.Events())
	pdResult, err := verdict.Classify(packets, engs,
		verdict.Options{Kinds: []telemetry.EventKind{kind}})
	if err != nil {
		return nil, err
	}

	// Merge: packet rows from the Pd phase, FP rows from the calibration
	// phase (the Pd phase's windows tile its entire run, so it contributes
	// no false alarms of its own by construction).
	ledger := &verdict.Result{
		Records: append(append([]verdict.Record{}, pdResult.Records...), faResult.Records...),
		Summary: pdResult.Summary,
	}
	ledger.Summary.FPEngagements += faResult.Summary.FPEngagements
	ledger.Summary.FalseAlarmEdges += faResult.Summary.FalseAlarmEdges

	out := &VerdictOutcome{
		SNRdB:       snr,
		Event:       ev,
		Packets:     packets,
		Engagements: engs,
		Ledger:      ledger,

		CounterPd:                 pt.Pd,
		CounterDetectionsPerFrame: pt.DetectionsPerFrame,
		CounterFalseAlarms:        counterFA,
		LedgerPd:                  ledger.Summary.Pd,
		LedgerDetectionsPerFrame:  float64(ledger.Summary.DetectionEdges) / float64(d.FramesPerPoint),
		LedgerFalseAlarms:         ledger.Summary.FalseAlarmEdges,
		FalseAlarmsPerSec:         float64(counterFA) / faSec,
		FACalibrationSec:          faSec,
	}
	out.Reconciled = out.CounterPd == out.LedgerPd &&
		out.CounterDetectionsPerFrame == out.LedgerDetectionsPerFrame &&
		out.CounterFalseAlarms == out.LedgerFalseAlarms
	return out, nil
}
