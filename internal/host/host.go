// Package host implements the host-side control application of §2.5: the
// GNU-Radio-based backend that generates correlator coefficient templates
// offline, programs the custom DSP core through the UHD user register bus,
// and switches jammer personalities on the fly.
//
// Templates are produced by resampling a standard's preamble waveform to
// the core's fixed 25 MSPS rate and truncating to the 64-sample correlation
// window — exactly the procedure whose consequences §3.2 and §5 analyze
// ("an orthogonal code that is 3.2 µs long is being correlated across its
// first 2.56 µs").
package host

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fixed"
	"repro/internal/fpga"
	"repro/internal/jammer"
	"repro/internal/trigger"
	"repro/internal/wifi"
	"repro/internal/wifib"
	"repro/internal/wimax"
	"repro/internal/xcorr"
)

// Host drives one core's register bus, tracking the modeled bus latency of
// every programming action.
type Host struct {
	core *core.Core
}

// New returns a host controller attached to the core.
func New(c *core.Core) *Host { return &Host{core: c} }

// write programs one register, returning its bus latency.
func (h *Host) write(addr uint8, v uint32) (time.Duration, error) {
	if err := h.core.Bus().Write(addr, v); err != nil {
		return 0, err
	}
	return fpga.RegWriteLatency, nil
}

// PollFeedback reads the core's host-feedback counters ("Synchro Flags")
// the way the GNU Radio host polls them, journaling the poll through the
// core's telemetry recorder.
func (h *Host) PollFeedback() core.Stats {
	return h.core.PollFeedback()
}

// ProgramCorrelator quantizes the template into the two coefficient banks,
// writes them plus the threshold, and returns the total bus latency.
// thresholdFrac sets the trigger threshold as a fraction of the template's
// ideal (noiseless) peak metric.
func (h *Host) ProgramCorrelator(tpl []complex128, thresholdFrac float64) (time.Duration, error) {
	if thresholdFrac <= 0 || thresholdFrac > 1 {
		return 0, fmt.Errorf("host: threshold fraction %v outside (0,1]", thresholdFrac)
	}
	i, q := xcorr.CoefficientsFromTemplate(tpl)
	thresh := uint32(float64(xcorr.IdealPeakMetric(tpl)) * thresholdFrac)
	if thresh == 0 {
		thresh = 1
	}
	return h.writeCorrelator(i, q, thresh)
}

// ProgramCorrelatorFA programs the template with the threshold calibrated
// to a target false-alarm rate on terminated input (triggers per second),
// the §3.2 characterization methodology.
func (h *Host) ProgramCorrelatorFA(tpl []complex128, faPerSec float64) (time.Duration, error) {
	if faPerSec <= 0 {
		return 0, fmt.Errorf("host: false-alarm target %v must be positive", faPerSec)
	}
	i, q := xcorr.CoefficientsFromTemplate(tpl)
	return h.writeCorrelator(i, q, xcorr.ThresholdForFARate(i, q, faPerSec))
}

// writeCorrelator writes the I bank, the Q bank and then the threshold,
// returning the total bus latency.
func (h *Host) writeCorrelator(i, q []fixed.Coeff3, thresh uint32) (time.Duration, error) {
	var total time.Duration
	for _, bank := range []struct {
		base  uint8
		coefs []fixed.Coeff3
	}{{core.RegXCorrCoefI0, i}, {core.RegXCorrCoefQ0, q}} {
		for r, v := range core.PackCoefficients(bank.coefs) {
			d, err := h.write(bank.base+uint8(r), v)
			if err != nil {
				return total, err
			}
			total += d
		}
	}
	d, err := h.write(core.RegXCorrThreshold, thresh)
	return total + d, err
}

// ProgramEnergy configures the energy differentiator. Pass a zero dB value
// to disable the corresponding direction.
func (h *Host) ProgramEnergy(highDB, lowDB float64) (time.Duration, error) {
	var cfg uint32
	if highDB > 0 {
		cfg |= 1
	}
	if lowDB > 0 {
		cfg |= 2
	}
	var total time.Duration
	d, err := h.write(core.RegEnergyThreshHigh, uint32(highDB*100))
	if err != nil {
		return total, err
	}
	total += d
	if d, err = h.write(core.RegEnergyThreshLow, uint32(lowDB*100)); err != nil {
		return total, err
	}
	total += d
	d, err = h.write(core.RegEnergyConfig, cfg)
	return total + d, err
}

// ProgramTrigger configures the event builder: fusion mode, event sequence
// (1..3 events) and completion window in samples.
func (h *Host) ProgramTrigger(mode core.FusionMode, events []trigger.Event, window uint64) (time.Duration, error) {
	if len(events) == 0 || len(events) > trigger.MaxStages {
		return 0, fmt.Errorf("host: need 1..%d trigger events, got %d",
			trigger.MaxStages, len(events))
	}
	var cfg uint32
	for s, e := range events {
		cfg |= uint32(e&0xF) << (4 * s)
	}
	cfg |= uint32(len(events)) << 12
	if mode == core.FusionAny {
		cfg |= 1 << 14
	}
	var total time.Duration
	d, err := h.write(core.RegTriggerWindow, uint32(window))
	if err != nil {
		return total, err
	}
	total += d
	d, err = h.write(core.RegTriggerConfig, cfg)
	return total + d, err
}

// The operating points the paper's experiments arm.
const (
	// EnergyRiseDB is the energy differentiator's 10 dB rise threshold of
	// §3.2, the energy-high trigger of every reactive experiment.
	EnergyRiseDB = 10
	// WiMAXThresholdFrac is the WiMAX downlink correlator threshold as a
	// fraction of the template's matched peak, calibrated so the
	// correlator alone misses about 2/3 of the downlink frames, the §5
	// operating point (EXPERIMENTS.md, Fig. 12).
	WiMAXThresholdFrac = 0.86
)

// Detector is the set of detectors one arming programs: the
// cross-correlator when Template is set, the energy differentiator's
// rising edge when EnergyThresholdDB is positive, or both.
type Detector struct {
	// Template arms the cross-correlator (nil leaves it off).
	Template []complex128
	// ThresholdFrac is the correlator threshold as a fraction of the
	// template's ideal peak metric. Used only when FATargetPerSec is 0.
	ThresholdFrac float64
	// FATargetPerSec calibrates the correlator threshold to this
	// false-alarm rate on terminated input (the §3.2 methodology).
	FATargetPerSec float64
	// EnergyThresholdDB arms the energy differentiator (0 leaves it off).
	EnergyThresholdDB float64
}

// Arm programs the detectors of d and the trigger that fires on them: the
// correlator, then the energy differentiator, then the event builder. One
// armed detector fires a single-stage sequence on its own event; both fire
// on whichever of xcorr and energy-high comes first (the §5 fusion).
func (h *Host) Arm(d Detector) error {
	var events []trigger.Event
	if len(d.Template) > 0 {
		var err error
		if d.FATargetPerSec != 0 || d.ThresholdFrac == 0 {
			_, err = h.ProgramCorrelatorFA(d.Template, d.FATargetPerSec)
		} else {
			_, err = h.ProgramCorrelator(d.Template, d.ThresholdFrac)
		}
		if err != nil {
			return err
		}
		events = append(events, trigger.EventXCorr)
	}
	if d.EnergyThresholdDB > 0 {
		if _, err := h.ProgramEnergy(d.EnergyThresholdDB, 0); err != nil {
			return err
		}
		events = append(events, trigger.EventEnergyHigh)
	}
	if len(events) == 0 {
		return fmt.Errorf("host: no detector armed")
	}
	mode := core.FusionSequence
	if len(events) > 1 {
		mode = core.FusionAny
	}
	_, err := h.ProgramTrigger(mode, events, 0)
	return err
}

// Personality bundles the jammer settings that define one jamming behavior;
// §4.3 demonstrates switching between these at run time on a single
// hardware instantiation.
type Personality struct {
	// Waveform selects the TX preset.
	Waveform jammer.Waveform
	// Uptime is the burst duration.
	Uptime time.Duration
	// Delay postpones the burst after the trigger ("surgical" jamming).
	Delay time.Duration
	// Gain is the TX amplitude scale (1.0 = unity).
	Gain float64
}

// Standard personalities used in the §4.3 experiments.
var (
	// ReactiveLong is the 0.1 ms-uptime reactive jammer.
	ReactiveLong = Personality{Waveform: jammer.WaveformWGN,
		Uptime: 100 * time.Microsecond, Gain: 1}
	// ReactiveShort is the 0.01 ms-uptime reactive jammer.
	ReactiveShort = Personality{Waveform: jammer.WaveformWGN,
		Uptime: 10 * time.Microsecond, Gain: 1}
	// Continuous approximates the always-on jammer with the maximum burst.
	Continuous = Personality{Waveform: jammer.WaveformWGN,
		Uptime: 40 * time.Second, Gain: 1}
)

// ProgramJammer writes a personality to the core and returns the bus
// latency of the switch — the "small latency equivalent to the latency of
// the UHD user setting bus (hundreds of ns)" per register of §4.3.
func (h *Host) ProgramJammer(p Personality) (time.Duration, error) {
	if p.Gain < 0 || p.Gain > 65.535 {
		return 0, fmt.Errorf("host: gain %v outside [0, 65.535]", p.Gain)
	}
	up := fpga.DurationToSamples(p.Uptime)
	if up == 0 {
		up = 1
	}
	if up > 1<<32-1 {
		up = 1<<32 - 1
	}
	var total time.Duration
	writes := []struct {
		addr uint8
		v    uint32
	}{
		{core.RegJammerWaveform, uint32(p.Waveform)},
		{core.RegJammerUptime, uint32(up)},
		{core.RegJammerDelay, uint32(fpga.DurationToSamples(p.Delay))},
		{core.RegJammerGainAnt, uint32(p.Gain * 1000)},
	}
	for _, w := range writes {
		d, err := h.write(w.addr, w.v)
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// WiFiLongTemplate returns the 64-sample correlation template for the WiFi
// long preamble: the 3.2 µs long training symbol resampled to the core's
// fixed 25 MSPS (80 samples) and truncated to the 64-sample window — §3.2's
// "orthogonal code that is 3.2 µs long is being correlated across its first
// 2.56 µs". The truncation, the sign-bit slicing and the 3-bit coefficients
// are what limit Fig. 6's curves.
func WiFiLongTemplate() []complex128 {
	return clampTemplate(dsp.Resample(wifi.LongTrainingSymbol(), 5, 4))
}

// WiFiLongTemplateRawRate returns the naive alternative of loading the
// 20 MSPS long training symbol directly without rate correction: every
// received sample slips 0.8 template samples, the correlation never
// accumulates coherently (peak ≈ 20% of the matched value), and detection
// collapses below any useful false-alarm threshold. The ablation benches
// use it to show why the host-side resampling step matters.
func WiFiLongTemplateRawRate() []complex128 {
	return clampTemplate(wifi.LongTrainingSymbol())
}

// WiFiShortTemplate returns the 64-sample template for the WiFi short
// preamble: the cyclic 0.8 µs short training symbol resampled to 25 MSPS
// (period 20 samples, 3.2 repetitions per window). The code's ten cyclic
// repetitions per frame are what keep Fig. 7 detection high.
func WiFiShortTemplate() []complex128 {
	return clampTemplate(dsp.Resample(wifi.ShortPreamble(), 5, 4))
}

// WiMAXTemplate returns the 64-sample template for a WiMAX downlink
// preamble: the 11.4 MSPS OFDMA preamble symbol resampled to 25 MSPS
// (125/57) and truncated — only the first 2.56 µs of the 25 µs code.
func WiMAXTemplate(cfg wimax.Config) ([]complex128, error) {
	pre, err := wimax.PreambleSymbol(cfg)
	if err != nil {
		return nil, err
	}
	rs := dsp.Resample(pre[wimax.CPLen:], 125, 57)
	return clampTemplate(rs), nil
}

// templateSkip drops the polyphase filter's ramp-up from the head of a
// resampled template so the coefficients describe steady-state signal (the
// receive chain resamples continuously and has no per-frame transient).
const templateSkip = 10

func clampTemplate(s dsp.Samples) []complex128 {
	if len(s) > templateSkip+xcorr.Length {
		s = s[templateSkip:]
	}
	if len(s) > xcorr.Length {
		s = s[:xcorr.Length]
	}
	return s
}

// WiFiBTemplate returns the 64-sample template for the 802.11b DSSS long
// preamble: the scrambled-ones SYNC field (Barker-spread DBPSK at
// 22 MSPS) resampled to 25 MSPS. The SYNC scrambler seed is fixed by the
// standard's long-preamble convention, so the waveform is predictable —
// the "low-entropy portion" §2.3 says templates may be inferred from.
func WiFiBTemplate() []complex128 {
	sync := wifib.SyncWaveform(8, 0x1B)
	return clampTemplate(dsp.Resample(sync, 25, 22))
}
