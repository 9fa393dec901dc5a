package experiments

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/radio"
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

// RunVerdictLedger runs the instrumented single-point characterization of
// d, which must hold exactly one SNR point, and returns the reconciled
// ledger. The run fails if a journal of telemetry.DefaultJournalDepth
// events drops any, since a truncated journal cannot reconcile.
func RunVerdictLedger(d DetectionConfig) (*VerdictOutcome, error) {
	if err := d.check(); err != nil {
		return nil, err
	}
	if len(d.SNRsDB) != 1 {
		return nil, fmt.Errorf("experiments: verdict ledger runs exactly one SNR point, got %d", len(d.SNRsDB))
	}
	snr := d.SNRsDB[0]
	// The counted event, and the journal's edge kind for it.
	ev, kind := trigger.EventEnergyHigh, telemetry.EvEnergyHighEdge
	if len(d.Template) > 0 {
		ev, kind = trigger.EventXCorr, telemetry.EvXCorrEdge
	}

	// The noise-only false-alarm calibration and the Pd point, each on its
	// own core and journal; each frame's clock window is journaled
	// alongside the per-frame counter deltas. A started core's clock reads
	// 0, and each frame's window starts where the last one ended.
	faLive := telemetry.NewLive(telemetry.DefaultJournalDepth)
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	var fa, pt tally
	faProbe, ptProbe := detectorProbe(d.Detector, &fa), detectorProbe(d.Detector, &pt)
	faProbe.rec, ptProbe.rec = faLive, live
	points := pointStream(d, snr, ptProbe)
	packets := make([]verdict.Packet, 0, d.FramesPerPoint)
	points.after = func(radios []*radio.N210, _ []dsp.Samples) {
		start := uint64(0)
		if len(packets) > 0 {
			start = packets[len(packets)-1].End
		}
		packets = append(packets, verdict.Packet{Index: len(packets), Start: start, End: radios[0].Core().Clock().Cycle()})
	}
	ss := []*stream{faStream(d.Seed, faProbe), points}
	if err := forEach(len(ss), func(i int) error { return ss[i].run() }); err != nil {
		return nil, err
	}
	for _, l := range []*telemetry.Live{faLive, live} {
		if dropped := l.Dropped(); dropped != 0 {
			return nil, fmt.Errorf("experiments: journal dropped %d events", dropped)
		}
	}
	// With no ground-truth packets, every engagement is a false positive and
	// every configured-kind edge a false alarm.
	faResult, err := verdict.Classify(nil, span.Build(faLive.Events()),
		verdict.Options{Kinds: []telemetry.EventKind{kind}})
	if err != nil {
		return nil, err
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

	point := pt.point(snr, d.FramesPerPoint)
	faSec := faSeconds()
	out := &VerdictOutcome{
		SNRdB:       snr,
		Event:       ev,
		Packets:     packets,
		Engagements: engs,
		Ledger:      ledger,

		CounterPd:                 point.Pd,
		CounterDetectionsPerFrame: point.DetectionsPerFrame,
		CounterFalseAlarms:        fa.edges,
		LedgerPd:                  ledger.Summary.Pd,
		LedgerDetectionsPerFrame:  float64(ledger.Summary.DetectionEdges) / float64(d.FramesPerPoint),
		LedgerFalseAlarms:         ledger.Summary.FalseAlarmEdges,
		FalseAlarmsPerSec:         float64(fa.edges) / faSec,
		FACalibrationSec:          faSec,
	}
	out.Reconciled = out.CounterPd == out.LedgerPd &&
		out.CounterDetectionsPerFrame == out.LedgerDetectionsPerFrame &&
		out.CounterFalseAlarms == out.LedgerFalseAlarms
	return out, nil
}
