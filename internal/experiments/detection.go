// Package experiments drives the paper's evaluation: the detection
// characterization of §3 (Figs. 6-8), the testbed characterization of §4.1
// (Table 1), the WiFi jamming sweeps of §4.3 (Figs. 10-11), the WiMAX
// validation of §5 (Fig. 12), and the timeline/resource/reconfigurability
// analyses. Each experiment returns plain data that cmd/experiments prints
// and bench_test.go reports as benchmark metrics.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// FrameKind selects the §3.2 test frame type.
type FrameKind uint8

// The frame types used in the detection characterization.
const (
	// FullFrame is a complete WiFi frame: 10 short preambles, 2 long
	// preambles, SIGNAL and payload.
	FullFrame FrameKind = iota
	// SingleLongPreamble is a pseudo-frame with one long training symbol.
	SingleLongPreamble
	// SingleShortPreamble is a pseudo-frame with one short training symbol.
	SingleShortPreamble
)

// DetectionConfig describes one detection characterization run.
type DetectionConfig struct {
	// Template arms the cross-correlator (nil runs energy-only).
	Template []complex128
	// ThresholdFrac is the correlator threshold as a fraction of the
	// template's ideal peak metric. Ignored when FATargetPerSec is set.
	ThresholdFrac float64
	// FATargetPerSec calibrates the correlator threshold to this
	// false-alarm rate on terminated input (the §3.2 methodology).
	FATargetPerSec float64
	// EnergyThresholdDB arms the energy differentiator (0 leaves it off).
	EnergyThresholdDB float64
	// Kind selects the transmitted frames.
	Kind FrameKind
	// FramesPerPoint is the number of frames per SNR point (the paper uses
	// 10,000; scale down for quick runs).
	FramesPerPoint int
	// SNRsDB lists the receiver SNR sweep points.
	SNRsDB []float64
	// Seed drives all noise and payload randomness.
	Seed int64
	// Impairments optionally distorts the received waveform with a
	// hardware-realistic front end before the jammer's DDC (zero value =
	// ideal front end).
	Impairments impair.Config
	// Event selects which detector's edges count as detections; defaults
	// to xcorr when a template is present, energy-high otherwise.
	Event trigger.Event
}

// DetectionPoint is one (SNR, detection) measurement.
type DetectionPoint struct {
	SNRdB float64
	// Pd is the fraction of frames with at least one detection.
	Pd float64
	// DetectionsPerFrame is the mean detection count per frame (Fig. 8's
	// excessive-detection region shows values above 1).
	DetectionsPerFrame float64
}

// DetectionResult is a full characterization curve plus the false-alarm
// calibration measured on a terminated (noise-only) input.
type DetectionResult struct {
	Points []DetectionPoint
	// FalseAlarmsPerSec is the detection rate with the input terminated
	// (§3.2's 50 Ω terminator methodology).
	FalseAlarmsPerSec float64
	// FACalibrationSec is how much noise-only time was simulated; the
	// paper observes 30 minutes, which is beyond a unit-test budget, so
	// runs report their actual window.
	FACalibrationSec float64
}

// noiseFloorPower keeps the quantizer exercised without dominating: about
// -60 dBFS per sample at the jammer ADC.
const noiseFloorPower = 1e-6

// frameSource synthesizes the §3.2 test frames of one kind into storage
// it owns: the pseudo-frame waveform is built once, and full frames reuse
// one modem codec, PSDU and waveform, so a warm source allocates nothing.
type frameSource struct {
	kind FrameKind
	seed int64
	tx   wifi.TxCodec
	body [64]byte // a full frame's MPDU, before the FCS
	psdu []byte
	wave dsp.Samples // the pseudo-frame, or the last full frame
	buf  dsp.Samples // the last framed waveform
}

func newFrameSource(kind FrameKind, seed int64) *frameSource {
	s := &frameSource{kind: kind, seed: seed}
	switch kind {
	case SingleLongPreamble:
		s.wave = wifi.ModulatePseudoFrame(wifi.PseudoLong)
	case SingleShortPreamble:
		s.wave = wifi.ModulatePseudoFrame(wifi.PseudoShort)
	}
	return s
}

// frame returns frame seq's waveform at 20 MSPS, valid until the next call.
func (s *frameSource) frame(seq int) (dsp.Samples, error) {
	if s.kind == SingleLongPreamble || s.kind == SingleShortPreamble {
		return s.wave, nil
	}
	for i := range s.body {
		s.body[i] = byte((seq + i) * 31)
	}
	s.psdu = wifi.AppendFCSTo(s.psdu[:0], s.body[:])
	wave, err := s.tx.TxFrame(s.wave[:0], s.psdu, wifi.TxConfig{
		Rate:          wifi.Rate24,
		ScramblerSeed: uint8((s.seed+int64(seq))%126) + 1,
	})
	if err != nil {
		return nil, err
	}
	s.wave = wave
	return wave, nil
}

// framed returns frame seq's waveform between gap zero samples on either
// side, and the waveform's power. The buffer is valid until the next call.
func (s *frameSource) framed(seq, gap int) (dsp.Samples, float64, error) {
	wave, err := s.frame(seq)
	if err != nil {
		return nil, 0, err
	}
	n := len(wave) + 2*gap
	if cap(s.buf) < n {
		s.buf = make(dsp.Samples, n)
	}
	buf := s.buf[:n]
	clear(buf[:gap])
	copy(buf[gap:], wave)
	clear(buf[gap+len(wave):])
	return buf, wave.Power(), nil
}

// faChunk is the block size in which the noise-only calibration streams
// through the radio.
const faChunk = 1 << 14

// processNoise streams n samples from noise through r in faChunk blocks
// from one reused buffer: the §3.2 terminated input.
func processNoise(r *radio.N210, noise *dsp.NoiseSource, n int) error {
	chunk := make(dsp.Samples, min(n, faChunk))
	for done := 0; done < n; done += len(chunk) {
		chunk = chunk[:min(len(chunk), n-done)]
		for i := range chunk {
			chunk[i] = noise.Sample()
		}
		if _, err := r.Process(chunk); err != nil {
			return err
		}
	}
	return nil
}

// buildDetector assembles a jammer radio with the requested detection
// configuration; the returned counter function reports the chosen event's
// edge count, and the returned event is the resolved detection event.
func buildDetector(cfg DetectionConfig) (*radio.N210, func() uint64, trigger.Event, error) {
	r := radio.New()
	if err := r.SetSourceRate(wifi.SampleRate); err != nil {
		return nil, nil, trigger.EventNone, err
	}
	h := host.New(r.Core())
	ev := cfg.Event
	if len(cfg.Template) > 0 {
		if cfg.FATargetPerSec > 0 {
			if _, err := h.ProgramCorrelatorFA(cfg.Template, cfg.FATargetPerSec); err != nil {
				return nil, nil, ev, err
			}
		} else {
			frac := cfg.ThresholdFrac
			if frac == 0 {
				frac = 0.5
			}
			if _, err := h.ProgramCorrelator(cfg.Template, frac); err != nil {
				return nil, nil, ev, err
			}
		}
		if ev == trigger.EventNone {
			ev = trigger.EventXCorr
		}
	}
	if cfg.EnergyThresholdDB > 0 {
		if _, err := h.ProgramEnergy(cfg.EnergyThresholdDB, 0); err != nil {
			return nil, nil, ev, err
		}
		if ev == trigger.EventNone {
			ev = trigger.EventEnergyHigh
		}
	}
	if ev == trigger.EventNone {
		return nil, nil, ev, fmt.Errorf("experiments: no detector armed")
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{ev}, 0); err != nil {
		return nil, nil, ev, err
	}
	// The jammer must stay silent during characterization: minimum burst,
	// zero gain.
	if _, err := h.ProgramJammer(host.Personality{Gain: 0.001}); err != nil {
		return nil, nil, ev, err
	}
	r.Start()
	counter := func() uint64 {
		st := r.Core().Stats()
		switch ev {
		case trigger.EventXCorr:
			return st.XCorrDetections
		case trigger.EventEnergyLow:
			return st.EnergyLowDetections
		default:
			return st.EnergyHighDetections
		}
	}
	return r, counter, ev, nil
}

// CharacterizeDetection runs the §3.2 methodology: measure the false-alarm
// rate on a terminated input, then sweep SNR sending FramesPerPoint frames
// per point and counting per-frame detections.
func CharacterizeDetection(cfg DetectionConfig) (*DetectionResult, error) {
	if cfg.FramesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: FramesPerPoint must be positive")
	}
	if len(cfg.SNRsDB) == 0 {
		return nil, fmt.Errorf("experiments: no SNR points")
	}
	faCount, faSec, _, err := falseAlarms(cfg, nil)
	if err != nil {
		return nil, err
	}
	result := &DetectionResult{
		FalseAlarmsPerSec: float64(faCount) / faSec,
		FACalibrationSec:  faSec,
	}
	// One worker-pool item per SNR point. Each point builds its own radio
	// stack and derives every seed from (cfg.Seed, snr), so the sweep is
	// bit-identical at any pool width.
	result.Points = make([]DetectionPoint, len(cfg.SNRsDB))
	err = forEach(len(cfg.SNRsDB), func(pi int) error {
		p, err := detectionPoint(cfg, cfg.SNRsDB[pi], nil, nil)
		result.Points[pi] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// falseAlarms is the false-alarm calibration: noise only, the terminated
// input of §3.2, through a fresh detector with live (when non-nil) as its
// recorder. It returns the detection count, the calibration window in
// seconds and the resolved detection event.
func falseAlarms(cfg DetectionConfig, live *telemetry.Live) (uint64, float64, trigger.Event, error) {
	r, count, ev, err := buildDetector(cfg)
	if err != nil {
		return 0, 0, ev, err
	}
	if live != nil {
		r.Core().SetRecorder(live)
	}
	noise := dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+9999)
	// 2M samples at 20 MSPS input (2.5M at the core) ≈ 0.1 s. Kept modest;
	// cmd/experiments -full raises it via FACalibrationScale.
	n := 2_000_000 * faCalibrationScale
	if err := processNoise(r, noise, n); err != nil {
		return 0, 0, ev, err
	}
	return count(), float64(n) / wifi.SampleRate, ev, nil
}

// detectionPoint measures one SNR point: FramesPerPoint frames through a
// fresh detector with live (when non-nil) as its recorder, counting
// per-frame detections. A non-nil onFrame receives each frame's clock
// window [start, end) in cycles.
func detectionPoint(cfg DetectionConfig, snr float64, live *telemetry.Live, onFrame func(start, end uint64)) (DetectionPoint, error) {
	r, count, _, err := buildDetector(cfg)
	if err != nil {
		return DetectionPoint{}, err
	}
	if live != nil {
		r.Core().SetRecorder(live)
	}
	clock := r.Core().Clock()
	front := impair.New(cfg.Impairments)
	noise := dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+int64(snr*100))
	amp := math.Sqrt(noiseFloorPower * dsp.FromDB(snr))
	src := newFrameSource(cfg.Kind, cfg.Seed)
	framesDetected := 0
	var detections uint64
	for f := 0; f < cfg.FramesPerPoint; f++ {
		// Scale the unit-power frame to the target SNR over noise and
		// surround it with idle gap (the paper sends 130 frames/s; the
		// inter-frame gap only needs to re-arm the detectors).
		buf, power, err := src.framed(f, interFrameGap)
		if err != nil {
			return DetectionPoint{}, err
		}
		scale := amp / math.Sqrt(power)
		for i := range buf {
			buf[i] = front.ProcessSample(buf[i]*complex(scale, 0)) + noise.Sample()
		}
		before := count()
		start := clock.Cycle()
		if _, err := r.Process(buf); err != nil {
			return DetectionPoint{}, err
		}
		if onFrame != nil {
			onFrame(start, clock.Cycle())
		}
		d := count() - before
		if d > 0 {
			framesDetected++
		}
		detections += d
	}
	return DetectionPoint{
		SNRdB:              snr,
		Pd:                 float64(framesDetected) / float64(cfg.FramesPerPoint),
		DetectionsPerFrame: float64(detections) / float64(cfg.FramesPerPoint),
	}, nil
}

// interFrameGap is the idle padding around each characterization frame at
// 20 MSPS; enough for the energy differentiator's compare pipeline to see
// the fall and re-arm.
const interFrameGap = 256

// faCalibrationScale multiplies the noise-only calibration window;
// cmd/experiments -full raises it for tighter false-alarm estimates.
var faCalibrationScale = 1

// SetFACalibrationScale adjusts the false-alarm window multiplier (≥1).
func SetFACalibrationScale(n int) {
	if n < 1 {
		n = 1
	}
	faCalibrationScale = n
}
