package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/dsp"
	"repro/internal/fixed"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/iperf"
	"repro/internal/jammer"
	"repro/internal/testbed"
	"repro/internal/wifi"
	"repro/internal/xcorr"
)

// Ablations quantify the design choices DESIGN.md calls out: the 1-bit
// sign correlator versus full precision, the fixed 64-sample window versus
// longer ones, the energy window length, detector fusion, template rate
// correction, and jamming waveforms.

// softCorrelator is a full-precision sliding matched filter used as the
// ablation baseline against the hardware sign-bit design. It is not part of
// the FPGA model.
type softCorrelator struct {
	tpl  []complex128
	hist []complex128
	pos  int
	warm int
}

func newSoftCorrelator(tpl []complex128) *softCorrelator {
	t := append([]complex128(nil), tpl...)
	return &softCorrelator{tpl: t, hist: make([]complex128, len(t))}
}

func (s *softCorrelator) process(x complex128) float64 {
	s.hist[s.pos] = x
	s.pos = (s.pos + 1) % len(s.hist)
	if s.warm < len(s.hist) {
		s.warm++
		return 0
	}
	var acc complex128
	idx := s.pos
	for k := range s.tpl {
		acc += s.hist[idx] * cmplx.Conj(s.tpl[k])
		idx++
		if idx == len(s.hist) {
			idx = 0
		}
	}
	// Normalized magnitude-squared (template energy normalization keeps
	// thresholds comparable across lengths).
	var te float64
	for _, t := range s.tpl {
		te += real(t)*real(t) + imag(t)*imag(t)
	}
	m := real(acc)*real(acc) + imag(acc)*imag(acc)
	return m / te
}

// CorrelatorComparison is one ablation row: detection probability of a
// single long preamble at the given SNR for several correlator variants.
type CorrelatorComparison struct {
	SNRdB               float64
	HardwarePd          float64 // 1-bit signs × 3-bit coeffs, 64 taps
	FullPrecisionPd     float64 // float matched filter, 64 taps
	FullPrecision128Pd  float64 // float matched filter, 128 taps
	RawRateTemplatePd   float64 // hardware correlator, uncorrected 20 MSPS template
	HardwareThreshold   uint32
	SoftThresholdFactor float64
}

// AblationCorrelators measures single-long-preamble detection at a sweep of
// SNRs for the hardware design and its ablation variants.
func AblationCorrelators(snrsDB []float64, frames int, seed int64) ([]CorrelatorComparison, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("experiments: frames must be positive")
	}
	tpl64 := host.WiFiLongTemplate()
	tplRaw := host.WiFiLongTemplateRawRate()
	// The frame is the real preamble's two LTS copies, and its first 128
	// samples the 128-tap template (physically available at higher resource
	// cost — the §5 limitation discussion); the 64-tap detectors see one.
	lts := wifi.LongTrainingSymbol()
	wave := dsp.Resample(append(lts.Clone(), lts...), 5, 4)
	tpl128 := wave[:min(len(wave), 128)]
	frame := func(int) (dsp.Samples, error) { return wave, nil }

	iC, qC := xcorr.CoefficientsFromTemplate(tpl64)
	hwThresh := xcorr.ThresholdForFARate(iC, qC, 0.52)
	iR, qR := xcorr.CoefficientsFromTemplate(tplRaw)
	rawThresh := xcorr.ThresholdForFARate(iR, qR, 0.52)
	// Soft thresholds: same χ² logic — for the normalized soft metric under
	// noise of power Pn, E[m] = Pn, and the tail is exp(-T/Pn).
	// A float64 division, not exact constant arithmetic: the figure
	// golden pins the rounding of the former.
	rate := float64(fpga.SampleRateHz)
	softFactor := math.Log(rate / 0.52)

	out := make([]CorrelatorComparison, len(snrsDB))
	err := forEach(len(snrsDB), func(oi int) error {
		snr := snrsDB[oi]
		next := overNoise(frame, interFrameGap, snr, impair.Config{}, seed+int64(snr*10))
		row := CorrelatorComparison{
			SNRdB: snr, HardwareThreshold: hwThresh, SoftThresholdFactor: softFactor,
		}
		var hwHits, fpHits, fp128Hits, rawHits int
		for f := 0; f < frames; f++ {
			buf, err := next(f)
			if err != nil {
				return err
			}
			hw := xcorr.New()
			if err := hw.SetCoefficients(iC, qC); err != nil {
				return err
			}
			hw.SetThreshold(hwThresh)
			raw := xcorr.New()
			if err := raw.SetCoefficients(iR, qR); err != nil {
				return err
			}
			raw.SetThreshold(rawThresh)
			soft := newSoftCorrelator(tpl64)
			soft128 := newSoftCorrelator(tpl128)
			softThresh := noiseFloorPower * softFactor
			var hwHit, fpHit, fp128Hit, rawHit bool
			for _, s := range buf {
				q := fixed.Quantize(s)
				if _, tr := hw.Process(q); tr {
					hwHit = true
				}
				if _, tr := raw.Process(q); tr {
					rawHit = true
				}
				if soft.process(s) > softThresh {
					fpHit = true
				}
				if soft128.process(s) > softThresh {
					fp128Hit = true
				}
			}
			if hwHit {
				hwHits++
			}
			if fpHit {
				fpHits++
			}
			if fp128Hit {
				fp128Hits++
			}
			if rawHit {
				rawHits++
			}
		}
		n := float64(frames)
		row.HardwarePd = float64(hwHits) / n
		row.FullPrecisionPd = float64(fpHits) / n
		row.FullPrecision128Pd = float64(fp128Hits) / n
		row.RawRateTemplatePd = float64(rawHits) / n
		out[oi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EnergyWindowPoint is one row of the energy-window ablation: worst-case
// detection latency and detection probability for a given moving-sum
// length.
type EnergyWindowPoint struct {
	Window    int
	LatencyUS float64 // worst-case fill latency in µs
	Pd        float64 // Pd for a 12 dB burst at the 10 dB threshold
}

// AblationEnergyWindow evaluates moving-sum lengths around the hardware's
// N=32 with a software model of the same recurrence.
func AblationEnergyWindow(windows []int, bursts int, seed int64) ([]EnergyWindowPoint, error) {
	if bursts <= 0 {
		return nil, fmt.Errorf("experiments: bursts must be positive")
	}
	burst := make(dsp.Samples, 400) // a constant tone, 12 dB over the floor
	for i := range burst {
		burst[i] = 1
	}
	out := make([]EnergyWindowPoint, len(windows))
	err := forEach(len(windows), func(oi int) error {
		w := windows[oi]
		if w < 1 {
			return fmt.Errorf("experiments: window %d invalid", w)
		}
		noise := dsp.NewNoiseSource(noiseFloorPower, seed+int64(w))
		hits := 0
		var buf dsp.Samples
		for b := 0; b < bursts; b++ {
			buf = noise.AddTo(dsp.Frame(buf, burst, 400, 224, 12, noiseFloorPower))
			if softEnergyDetect(buf, w, 10) {
				hits++
			}
		}
		out[oi] = EnergyWindowPoint{
			Window:    w,
			LatencyUS: float64(w) / 25, // w samples at 25 MSPS
			Pd:        float64(hits) / float64(bursts),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// softEnergyDetect models the differentiator recurrence with an arbitrary
// window in floating point.
func softEnergyDetect(x dsp.Samples, window int, thresholdDB float64) bool {
	th := dsp.FromDB(thresholdDB)
	sum := 0.0
	hist := make([]float64, window)
	delay := make([]float64, 64)
	pos, dpos, seen := 0, 0, 0
	for _, v := range x {
		e := real(v)*real(v) + imag(v)*imag(v)
		sum += e - hist[pos]
		hist[pos] = e
		pos = (pos + 1) % window
		ref := delay[dpos]
		delay[dpos] = sum
		dpos = (dpos + 1) % 64
		seen++
		if seen < window+64 {
			continue
		}
		if ref > 0 && sum > ref*th {
			return true
		}
	}
	return false
}

// WaveformAblationRow compares jamming waveform presets at equal gain.
type WaveformAblationRow struct {
	Waveform jammer.Waveform
	PRR      float64
	SIRdB    float64
}

// AblationWaveforms runs the iperf link against each waveform preset with
// identical trigger/uptime settings and per-waveform gain chosen so each
// preset radiates unit power: the replay buffer holds the victim's signal
// as received through the −32.8 dB client→jammer path, so it needs that
// much TX gain to reach the same power as the synthetic waveforms.
func AblationWaveforms(packets int, attDB float64, seed int64) ([]WaveformAblationRow, error) {
	tone := dsp.Tone(1024, 2e6, 25e6)
	replayGain := 1 / testbed.New().PathGain(testbed.PortClient, testbed.PortJammerRX)
	waveforms := []jammer.Waveform{jammer.WaveformWGN, jammer.WaveformReplay, jammer.WaveformHostStream}
	out := make([]WaveformAblationRow, len(waveforms))
	err := forEach(len(waveforms), func(oi int) error {
		w := waveforms[oi]
		link := iperf.DefaultLink()
		link.Packets = packets
		link.PayloadBytes = 600
		link.Seed = seed
		gain := 1.0
		var delay time.Duration
		if w == jammer.WaveformReplay {
			gain = replayGain
			// Replay transmits whatever the capture buffer last heard; an
			// immediate burst would replay pre-frame silence, so delay past
			// the preamble to fill the 512-sample buffer with real signal
			// (a protocol-replay attack on the payload).
			delay = 20 * time.Microsecond
		}
		cfg := iperf.JammerConfig{
			Mode:          iperf.JamReactive,
			VariableAttDB: attDB,
			Personality: host.Personality{
				Waveform: w,
				Uptime:   100 * time.Microsecond,
				Delay:    delay,
				Gain:     gain,
			},
		}
		if w == jammer.WaveformHostStream {
			cfg.HostStream = tone
		}
		res, err := iperf.Run(link, cfg)
		if err != nil {
			return err
		}
		out[oi] = WaveformAblationRow{Waveform: w, PRR: res.PRR, SIRdB: res.SIRdB}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ImpairmentRow is one row of the front-end impairment ablation: detection
// probability of full WiFi frames at a fixed SNR under increasing hardware
// realism.
type ImpairmentRow struct {
	Label string
	Pd    float64
}

// AblationImpairments measures how hardware impairments shift the Fig. 6
// operating point: the same long-preamble detector at snrDB, fed frames
// through increasingly realistic front ends. This quantifies the documented
// gap between the ideal simulation and the paper's measured curves.
func AblationImpairments(frames int, snrDB float64, seed int64) ([]ImpairmentRow, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("experiments: frames must be positive")
	}
	cases := []struct {
		label string
		cfg   impair.Config
	}{
		{"ideal", impair.Config{}},
		{"cfo-6kHz", impair.Config{CFOHz: 6000, SampleRate: wifi.SampleRate}},
		{"iq-1dB-5deg", impair.Config{IQGainDB: 1, IQPhaseDeg: 5}},
		{"typical-usrp", impair.TypicalUSRP(2.484e9, wifi.SampleRate, seed)},
		// Uncalibrated DC offset: the mixer-leakage spur dwarfs a weak
		// signal and freezes the 1-bit slicer — the correlator's sharpest
		// hardware sensitivity.
		{"dc-uncalibrated", impair.Config{DCOffset: 2e-3}},
		{"harsh", impair.Config{
			CFOHz: 20000, SampleRate: wifi.SampleRate,
			IQGainDB: 1.5, IQPhaseDeg: 8, DCOffset: 5e-3,
			PhaseNoiseRadRMS: 0.01, ClockOffsetPPM: 20, Seed: seed,
		}},
	}
	cfg := DetectionConfig{
		Detector:       host.Detector{Template: host.WiFiLongTemplate(), FATargetPerSec: 0.52},
		Kind:           FullFrame,
		FramesPerPoint: frames,
		Seed:           seed,
	}
	hits := make([]tally, len(cases))
	ss := make([]*stream, len(cases))
	for i, c := range cases {
		cfg.Impairments = c.cfg
		ss[i] = pointStream(cfg, snrDB, detectorProbe(cfg.Detector, &hits[i]))
	}
	return measure(ss, func() []ImpairmentRow {
		out := make([]ImpairmentRow, len(cases))
		for i, c := range cases {
			out[i] = ImpairmentRow{Label: c.label, Pd: hits[i].pd(frames)}
		}
		return out
	}, nil)
}

// SoftDecisionRow compares hard and soft receivers under a jam burst of
// growing length at fixed burst power.
type SoftDecisionRow struct {
	BurstSymbols int
	HardFER      float64
	SoftFER      float64
}

// AblationSoftDecision measures frame error rate for the hard-decision
// receiver (what the framework's victims run) versus a soft-decision
// upgrade, as a jam burst covers more OFDM symbols — the "improved victim"
// study: how much more jamming does a better receiver force the attacker
// to buy?
func AblationSoftDecision(burstSymbols []int, trials int, seed int64) ([]SoftDecisionRow, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
	}
	out := make([]SoftDecisionRow, len(burstSymbols))
	err := forEach(len(burstSymbols), func(oi int) error {
		nb := burstSymbols[oi]
		if nb < 0 {
			return fmt.Errorf("experiments: negative burst length")
		}
		hardErr, softErr := 0, 0
		for tr := 0; tr < trials; tr++ {
			psdu := make([]byte, 300)
			for i := range psdu {
				psdu[i] = byte((tr + i) * 131)
			}
			tx, err := wifi.Modulate(psdu, wifi.TxConfig{
				Rate: wifi.Rate24, ScramblerSeed: uint8(tr%126) + 1,
			})
			if err != nil {
				return err
			}
			rx := tx.Clone()
			jam := dsp.NewNoiseSource(0.12, seed+int64(tr)+int64(nb)*977)
			start := 400 + 160 // after preamble+SIGNAL, into the data
			for i := start; i < start+nb*wifi.SymbolLen && i < len(rx); i++ {
				rx[i] += jam.Sample()
			}
			dsp.NewNoiseSource(1e-4, seed+int64(tr)+5000).AddTo(rx)

			if res, err := wifi.Demodulate(rx, 0, 300); err != nil || !bytes.Equal(res.PSDU, psdu) {
				hardErr++
			}
			if res, err := wifi.DemodulateSoft(rx, 0, 300); err != nil || !bytes.Equal(res.PSDU, psdu) {
				softErr++
			}
		}
		out[oi] = SoftDecisionRow{
			BurstSymbols: nb,
			HardFER:      float64(hardErr) / float64(trials),
			SoftFER:      float64(softErr) / float64(trials),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
