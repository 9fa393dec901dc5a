package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/impair"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trigger"
	"repro/internal/verdict"
	"repro/internal/wifi"
)

// The verdict-ledger experiment replays the §3.2 detection methodology —
// identical stimulus, seeds, radio construction and phase structure as
// CharacterizeDetection for a single SNR point — with the telemetry journal
// capturing every engagement, then classifies each transmitted frame from
// the journal alone and reconciles the ledger's Pd / false-alarm figures
// against the counter-delta figures computed the way the characterization
// computes them. Both views observe the same datapath run, so they must
// agree bit-for-bit; any divergence is an instrumentation bug (lost journal
// events, mis-stamped clocks, window misattribution), which is exactly what
// the reconciliation exists to catch.

// VerdictConfig describes one verdict-ledger run.
type VerdictConfig struct {
	// Detection is the stimulus and detector configuration, interpreted
	// exactly as CharacterizeDetection interprets it. SNRsDB must hold
	// exactly one point.
	Detection DetectionConfig
	// JournalDepth sizes the telemetry journals (default 1<<16 events). The
	// run fails if either journal drops events, since a truncated journal
	// cannot reconcile.
	JournalDepth int
}

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

// RunVerdictLedger runs the instrumented single-point characterization and
// returns the reconciled ledger.
func RunVerdictLedger(cfg VerdictConfig) (*VerdictOutcome, error) {
	d := cfg.Detection
	if d.FramesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: FramesPerPoint must be positive")
	}
	if len(d.SNRsDB) != 1 {
		return nil, fmt.Errorf("experiments: verdict ledger runs exactly one SNR point, got %d", len(d.SNRsDB))
	}
	snr := d.SNRsDB[0]
	depth := cfg.JournalDepth
	if depth <= 0 {
		depth = 1 << 16
	}

	// --- Phase 1: noise-only false-alarm calibration, its own fresh radio
	// and journal (mirroring CharacterizeDetection's structure so the
	// figures are comparable run-to-run, not just within this run). ---
	r, count, ev, err := buildDetector(d)
	if err != nil {
		return nil, err
	}
	kind := detectionKind(ev)
	faLive := telemetry.NewLive(depth)
	r.Core().SetRecorder(faLive)
	noise := dsp.NewNoiseSource(noiseFloorPower, d.Seed+9999)
	faSamples := 2_000_000 * faCalibrationScale
	if err := processNoise(r, noise, faSamples); err != nil {
		return nil, err
	}
	counterFA := count()
	if dropped := faLive.Dropped(); dropped != 0 {
		return nil, fmt.Errorf("experiments: FA journal dropped %d events; raise JournalDepth", dropped)
	}
	// With no ground-truth packets, every engagement is a false positive and
	// every configured-kind edge a false alarm.
	faResult, err := verdict.Classify(nil, span.Build(faLive.Events()),
		verdict.Options{Kinds: []telemetry.EventKind{kind}})
	if err != nil {
		return nil, err
	}

	// --- Phase 2: Pd measurement on a fresh radio, per-frame clock windows
	// journaled alongside the per-frame counter deltas. ---
	r, count, _, err = buildDetector(d)
	if err != nil {
		return nil, err
	}
	live := telemetry.NewLive(depth)
	r.Core().SetRecorder(live)
	clock := r.Core().Clock()
	front := impair.New(d.Impairments)
	pNoise := dsp.NewNoiseSource(noiseFloorPower, d.Seed+int64(snr*100))
	amp := math.Sqrt(noiseFloorPower * dsp.FromDB(snr))
	framesDetected := 0
	var detections uint64
	packets := make([]verdict.Packet, 0, d.FramesPerPoint)
	src := newFrameSource(d.Kind, d.Seed)
	for f := 0; f < d.FramesPerPoint; f++ {
		buf, power, err := src.framed(f, interFrameGap)
		if err != nil {
			return nil, err
		}
		scale := amp / math.Sqrt(power)
		for i := range buf {
			buf[i] = front.ProcessSample(buf[i]*complex(scale, 0)) + pNoise.Sample()
		}
		before := count()
		start := clock.Cycle()
		if _, err := r.Process(buf); err != nil {
			return nil, err
		}
		packets = append(packets, verdict.Packet{Index: f, Start: start, End: clock.Cycle()})
		delta := count() - before
		if delta > 0 {
			framesDetected++
		}
		detections += delta
	}
	if dropped := live.Dropped(); dropped != 0 {
		return nil, fmt.Errorf("experiments: journal dropped %d events; raise JournalDepth", dropped)
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

	faSec := float64(faSamples) / wifi.SampleRate
	out := &VerdictOutcome{
		SNRdB:       snr,
		Event:       ev,
		Packets:     packets,
		Engagements: engs,
		Ledger:      ledger,

		CounterPd:                 float64(framesDetected) / float64(d.FramesPerPoint),
		CounterDetectionsPerFrame: float64(detections) / float64(d.FramesPerPoint),
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
