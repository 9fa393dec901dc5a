// Package experiments drives the paper's evaluation: the detection
// characterization of §3 (Figs. 6-8), the testbed characterization of §4.1
// (Table 1), the WiFi jamming sweeps of §4.3 (Figs. 10-11), the WiMAX
// validation of §5 (Fig. 12), and the timeline/resource/reconfigurability
// analyses. Each experiment returns plain data; Figures lists the seeded
// sections that cmd/experiments prints, testdata/figures.golden pins and
// the root BenchmarkFigures times.
package experiments

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/impair"
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
	// Detector is the armed detector set; the correlator's edges count as
	// detections when a template is set, the energy-high edges otherwise.
	host.Detector
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
	// Event must stay unset (a set Event is an error): the counted event
	// follows from Detector. The field remains because the benchmark's
	// mirror of the detector set-up in bench/ reads it.
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

// faChunk is the block size in which the noise-only calibration streams
// through the radio.
const faChunk = 1 << 14

// faSamples is the length of the false-alarm calibration at 20 MSPS: 2M
// samples (2.5M at the core), about 0.1 s; cmd/experiments -full raises it
// via SetFACalibrationScale.
func faSamples() int { return 2_000_000 * faCalibrationScale }

func faSeconds() float64 { return float64(faSamples()) / wifi.SampleRate }

// faStream is the false-alarm calibration of §3.2: noise only, the
// terminated input, seeded from seed alone.
func faStream(seed int64, probes ...probe) *stream {
	noise := dsp.NewNoiseSource(noiseFloorPower, seed+9999)
	n := faSamples()
	chunk := make(dsp.Samples, min(n, faChunk))
	return &stream{sourceHz: wifi.SampleRate, blocks: (n + faChunk - 1) / faChunk, probes: probes,
		block: func(i int) (dsp.Samples, error) {
			c := chunk[:min(len(chunk), n-i*faChunk)]
			for j := range c {
				c[j] = noise.Sample()
			}
			return c, nil
		}}
}

// pointStream is one SNR point of cfg: FramesPerPoint frames of cfg's kind
// at snrDB over the noise floor, through cfg's impairments, every seed
// derived from (cfg.Seed, snrDB). The paper sends 130 frames/s; the
// inter-frame gap only needs to re-arm the detectors.
func pointStream(cfg DetectionConfig, snrDB float64, probes ...probe) *stream {
	frame := newFrameSource(cfg.Kind, cfg.Seed).frame
	return &stream{sourceHz: wifi.SampleRate, blocks: cfg.FramesPerPoint, lead: interFrameGap, probes: probes,
		block: overNoise(frame, interFrameGap, snrDB, cfg.Impairments, cfg.Seed+int64(snrDB*100))}
}

// check rejects a configuration that cannot be characterized.
func (cfg DetectionConfig) check() error {
	switch {
	case cfg.FramesPerPoint <= 0:
		return fmt.Errorf("experiments: FramesPerPoint must be positive")
	case len(cfg.SNRsDB) == 0:
		return fmt.Errorf("experiments: no SNR points")
	case cfg.Event != trigger.EventNone:
		return fmt.Errorf("experiments: DetectionConfig.Event must be unset: the armed detector decides it")
	}
	return nil
}

// CharacterizeDetection runs the §3.2 methodology: measure the false-alarm
// rate on a terminated input, then sweep SNR sending FramesPerPoint frames
// per point and counting per-frame detections.
func CharacterizeDetection(cfg DetectionConfig) (*DetectionResult, error) {
	res, err := measure(detectionStreams([]DetectionConfig{cfg}))
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// detectionStreams plans the characterization of cfgs: one false-alarm
// stream per seed, dispatched first, then one stream per SNR point of each
// frame kind, seed, impairments and frame count. Each stream arms a
// detector for every configuration that shares it.
func detectionStreams(cfgs []DetectionConfig) ([]*stream, func() []*DetectionResult, error) {
	var ss []*stream
	shared := map[any]*stream{}
	share := func(key any, p probe, open func() *stream) {
		s := shared[key]
		if s == nil {
			s = open()
			shared[key], ss = s, append(ss, s)
		}
		s.probes = append(s.probes, p)
	}
	fa := make([]tally, len(cfgs))
	for ci, cfg := range cfgs {
		if err := cfg.check(); err != nil {
			return nil, nil, err
		}
		share(cfg.Seed, detectorProbe(cfg.Detector, &fa[ci]), func() *stream { return faStream(cfg.Seed) })
	}
	points := make([][]tally, len(cfgs))
	for ci, cfg := range cfgs {
		points[ci] = make([]tally, len(cfg.SNRsDB))
		for pi, snr := range cfg.SNRsDB {
			share([...]any{cfg.Kind, cfg.Seed, cfg.Impairments, cfg.FramesPerPoint, snr},
				detectorProbe(cfg.Detector, &points[ci][pi]), func() *stream { return pointStream(cfg, snr) })
		}
	}
	return ss, func() []*DetectionResult {
		out := make([]*DetectionResult, len(cfgs))
		for ci, cfg := range cfgs {
			out[ci] = &DetectionResult{FalseAlarmsPerSec: float64(fa[ci].edges) / faSeconds(), FACalibrationSec: faSeconds()}
			for pi, snr := range cfg.SNRsDB {
				out[ci].Points = append(out[ci].Points, points[ci][pi].point(snr, cfg.FramesPerPoint))
			}
		}
		return out
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
