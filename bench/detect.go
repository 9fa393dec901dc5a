package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/radio"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// detect-sweep: the jammer's sensing path. One item is one figure's
// characterization through experiments.CharacterizeDetection, with its
// false-alarm calibration; a cycle is Fig. 6 (single long preamble,
// 0.52 trig/s), Fig. 7 and Fig. 8, and each cycle has its own seeds. No
// victim receiver runs here. Throughput counts characterization frames.

type detectRunner struct {
	seed   int64
	frames int
	snrs   []float64
}

var detectFigures = []string{"fig6", "fig7", "fig8"}

func (r *detectRunner) cycle() int { return len(detectFigures) }

func setupDetect(seed int64, smoke bool) (runner, error) {
	r := &detectRunner{seed: seed, frames: 300, snrs: experiments.DefaultSNRSweep}
	if smoke {
		r.frames, r.snrs = 8, []float64{0, 10}
	}
	return r, nil
}

func (r *detectRunner) sizes() map[string]any {
	return map[string]any{"figures": len(detectFigures), "frames_per_point": r.frames, "snr_points": len(r.snrs)}
}

// figure returns item k's figure name and characterization config.
func (r *detectRunner) figure(k int) (string, experiments.DetectionConfig) {
	var cfg experiments.DetectionConfig
	switch k % len(detectFigures) {
	case 0:
		cfg = experiments.Fig6Config(experiments.SingleLongPreamble, false, r.frames)
	case 1:
		cfg = experiments.Fig7Config(r.frames)
	default:
		cfg = experiments.Fig8Config(r.frames)
	}
	cfg.SNRsDB = r.snrs
	cfg.Seed = itemSeed(cfg.Seed, r.seed, k/len(detectFigures))
	return detectFigures[k%len(detectFigures)], cfg
}

func (r *detectRunner) run(k int) (itemResult, error) {
	name, cfg := r.figure(k)
	t0 := time.Now()
	res, err := experiments.CharacterizeDetection(cfg)
	d := time.Since(t0)
	if err != nil {
		return itemResult{}, fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range res.Points {
		if p.Pd < 0 || p.Pd > 1 || p.DetectionsPerFrame < p.Pd {
			return itemResult{}, fmt.Errorf("%s: implausible point %+v", name, p)
		}
	}
	units := float64(r.frames * len(r.snrs))
	return itemResult{out: detectLines(name, res), units: units, lat: []time.Duration{d}}, nil
}

func (r *detectRunner) traced(k int, tr *tracer) ([]string, error) {
	name, cfg := r.figure(k)
	res, err := characterizeMirror(tr, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return detectLines(name, res), nil
}

func detectLines(fig string, r *experiments.DetectionResult) []string {
	out := []string{fmt.Sprintf("%s fa_per_s=%v fa_sec=%v", fig, r.FalseAlarmsPerSec, r.FACalibrationSec)}
	for _, p := range r.Points {
		out = append(out, fmt.Sprintf("%s snr_db=%v pd=%v detections_per_frame=%v",
			fig, p.SNRdB, p.Pd, p.DetectionsPerFrame))
	}
	return out
}

// Constants of the §3.2 characterization, private to package experiments,
// as are the noise seed offsets below (+9999 false-alarm, snr×100 per
// point). If that package changes them, every traced detection run fails
// with outputs that differ from the untraced run.
const (
	detectNoisePower = 1e-6
	detectGap        = 256
	detectFASamples  = 2_000_000
)

// detector is a characterization jammer: a native-rate N210 behind its own
// 20→25 MSPS DDC, with a counter for the chosen detection event.
type detector struct {
	r     *radio.N210
	ddc   *dsp.Resampler
	count func() uint64
}

// buildDetector mirrors the experiments package's detector set-up.
func buildDetector(cfg experiments.DetectionConfig) (*detector, error) {
	r := radio.New()
	h := host.New(r.Core())
	ev := cfg.Event
	if len(cfg.Template) > 0 {
		if cfg.FATargetPerSec > 0 {
			if _, err := h.ProgramCorrelatorFA(cfg.Template, cfg.FATargetPerSec); err != nil {
				return nil, err
			}
		} else {
			frac := cfg.ThresholdFrac
			if frac == 0 {
				frac = 0.5
			}
			if _, err := h.ProgramCorrelator(cfg.Template, frac); err != nil {
				return nil, err
			}
		}
		if ev == trigger.EventNone {
			ev = trigger.EventXCorr
		}
	}
	if cfg.EnergyThresholdDB > 0 {
		if _, err := h.ProgramEnergy(cfg.EnergyThresholdDB, 0); err != nil {
			return nil, err
		}
		if ev == trigger.EventNone {
			ev = trigger.EventEnergyHigh
		}
	}
	if ev == trigger.EventNone {
		return nil, fmt.Errorf("no detector armed")
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{ev}, 0); err != nil {
		return nil, err
	}
	if _, err := h.ProgramJammer(host.Personality{Gain: 0.001}); err != nil {
		return nil, err
	}
	r.Start()
	count := func() uint64 {
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
	return &detector{r: r, ddc: dsp.NewResampler(5, 4, 8), count: count}, nil
}

// process streams a 20 MSPS buffer through the DDC and the core.
func (d *detector) process(tr *tracer, buf dsp.Samples) error {
	id := tr.begin("dsp.resample")
	in := d.ddc.Process(buf)
	tr.end(id, len(buf))
	id = tr.begin("core")
	_, err := d.r.Process(in)
	tr.end(id, len(in))
	return err
}

func (d *detector) tally(tr *tracer) {
	st := d.r.Core().Stats()
	tr.count("core.jam_samples", float64(st.JamSamples))
	tr.count("core.samples", float64(st.Samples))
}

// characterizeMirror replays experiments.CharacterizeDetection call for
// call, with the SNR points run in order on one goroutine.
func characterizeMirror(tr *tracer, cfg experiments.DetectionConfig) (*experiments.DetectionResult, error) {
	d, err := buildDetector(cfg)
	if err != nil {
		return nil, err
	}
	noise := dsp.NewNoiseSource(detectNoisePower, cfg.Seed+9999)
	id := tr.begin("dsp.noise")
	block := noise.Block(detectFASamples)
	tr.end(id, len(block))
	if err := d.process(tr, block); err != nil {
		return nil, err
	}
	d.tally(tr)
	faSec := float64(detectFASamples) / wifi.SampleRate
	res := &experiments.DetectionResult{
		FalseAlarmsPerSec: float64(d.count()) / faSec,
		FACalibrationSec:  faSec,
	}
	for _, snr := range cfg.SNRsDB {
		d, err := buildDetector(cfg)
		if err != nil {
			return nil, err
		}
		front := impair.New(cfg.Impairments)
		noise := dsp.NewNoiseSource(detectNoisePower, cfg.Seed+int64(snr*100))
		amp := math.Sqrt(detectNoisePower * dsp.FromDB(snr))
		framesDetected := 0
		var detections uint64
		for f := 0; f < cfg.FramesPerPoint; f++ {
			id := tr.begin("wifi.tx")
			wave, err := frameWaveform(cfg.Kind, f, cfg.Seed)
			if err != nil {
				tr.end(id, 0)
				return nil, err
			}
			buf := make(dsp.Samples, len(wave)+2*detectGap)
			copy(buf[detectGap:], wave)
			scale := amp / math.Sqrt(wave.Power())
			tr.end(id, len(buf))
			// The experiment computes front(x·scale) + noise per sample; the
			// impairment chain and the noise source hold independent state,
			// so two passes give the same sums.
			id = tr.begin("impair")
			for i := range buf {
				buf[i] = front.ProcessSample(buf[i] * complex(scale, 0))
			}
			tr.end(id, len(buf))
			id = tr.begin("dsp.noise")
			for i := range buf {
				buf[i] += noise.Sample()
			}
			tr.end(id, len(buf))
			before := d.count()
			if err := d.process(tr, buf); err != nil {
				return nil, err
			}
			n := d.count() - before
			if n > 0 {
				framesDetected++
			}
			detections += n
		}
		d.tally(tr)
		res.Points = append(res.Points, experiments.DetectionPoint{
			SNRdB:              snr,
			Pd:                 float64(framesDetected) / float64(cfg.FramesPerPoint),
			DetectionsPerFrame: float64(detections) / float64(cfg.FramesPerPoint),
		})
	}
	return res, nil
}

// frameWaveform builds characterization frame seq at 20 MSPS, as the
// experiments package does.
func frameWaveform(kind experiments.FrameKind, seq int, seed int64) (dsp.Samples, error) {
	switch kind {
	case experiments.SingleLongPreamble:
		return wifi.ModulatePseudoFrame(wifi.PseudoLong), nil
	case experiments.SingleShortPreamble:
		return wifi.ModulatePseudoFrame(wifi.PseudoShort), nil
	default:
		psdu := make([]byte, 64)
		for i := range psdu {
			psdu[i] = byte((seq + i) * 31)
		}
		return wifi.Modulate(wifi.AppendFCS(psdu), wifi.TxConfig{
			Rate:          wifi.Rate24,
			ScramblerSeed: uint8((seed+int64(seq))%126) + 1,
		})
	}
}
