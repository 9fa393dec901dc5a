package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/jammer"
	"repro/internal/testbed"
)

// DefaultSNRSweep is the Fig. 6-8 x-axis: –6 dB to +14 dB.
var DefaultSNRSweep = []float64{-6, -4, -2, 0, 2, 4, 6, 8, 10, 12, 14}

// Fig6Config returns the long-preamble characterization of Fig. 6 for one
// of the two paper operating points: the 0.52 trig/s false-alarm curve
// (lower threshold, higher Pd) and the 0.083 trig/s curve.
func Fig6Config(kind FrameKind, tight bool, frames int) DetectionConfig {
	fa := 0.52
	if tight {
		fa = 0.083
	}
	return DetectionConfig{
		Template:       host.WiFiLongTemplate(),
		FATargetPerSec: fa,
		Kind:           kind,
		FramesPerPoint: frames,
		SNRsDB:         DefaultSNRSweep,
		Seed:           61,
	}
}

// Fig7Config returns the short-preamble characterization of Fig. 7
// (full WiFi frames, constant false-alarm rate 0.059 trig/s).
func Fig7Config(frames int) DetectionConfig {
	return DetectionConfig{
		Template:       host.WiFiShortTemplate(),
		FATargetPerSec: 0.059,
		Kind:           FullFrame,
		FramesPerPoint: frames,
		SNRsDB:         DefaultSNRSweep,
		Seed:           71,
	}
}

// Fig8Config returns the energy-differentiator characterization of Fig. 8
// (full WiFi frames, 10 dB threshold).
func Fig8Config(frames int) DetectionConfig {
	return DetectionConfig{
		EnergyThresholdDB: 10,
		Kind:              FullFrame,
		FramesPerPoint:    frames,
		SNRsDB:            DefaultSNRSweep,
		Seed:              81,
	}
}

// Table1 returns the measured 5-port insertion-loss matrix in dB.
func Table1() [testbed.NumPorts][testbed.NumPorts]float64 {
	return testbed.New().MeasureTable()
}

// JamSweepPoint is one (attenuation, result) entry of the Fig. 10/11
// bandwidth and PRR sweeps.
type JamSweepPoint struct {
	VariableAttDB float64
	Result        iperf.Result
}

// JamSweepConfig parameterizes one Fig. 10/11 curve.
type JamSweepConfig struct {
	// Mode and Uptime select the jammer type (uptime ignored for
	// continuous).
	Mode   iperf.JamMode
	Uptime time.Duration
	// Attenuations is the variable-attenuator sweep (dB); higher values
	// mean weaker jamming, i.e. higher SIR.
	Attenuations []float64
	// Packets per point.
	Packets int
	// PayloadBytes per datagram.
	PayloadBytes int
	Seed         int64
}

// DefaultAttenuationSweep spans SIR ≈ -12…+38 dB at the AP.
var DefaultAttenuationSweep = []float64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// DefaultJamSweep returns the sweep settings for one curve; the caller sets
// Packets.
func DefaultJamSweep(mode iperf.JamMode, uptime time.Duration) JamSweepConfig {
	return JamSweepConfig{
		Mode: mode, Uptime: uptime,
		Attenuations: DefaultAttenuationSweep,
		PayloadBytes: 1470,
		Seed:         101,
	}
}

// RunJamSweep produces one Fig. 10/11 curve. The attenuation points run
// across the experiment worker pool; each point builds its own link and
// jammer stack, so the curve is identical at any pool width.
func RunJamSweep(cfg JamSweepConfig) ([]JamSweepPoint, error) {
	out := make([]JamSweepPoint, len(cfg.Attenuations))
	err := forEach(len(cfg.Attenuations), func(i int) error {
		att := cfg.Attenuations[i]
		link := iperf.DefaultLink()
		link.Packets = cfg.Packets
		link.PayloadBytes = cfg.PayloadBytes
		link.Seed = cfg.Seed
		jam := iperf.JammerConfig{
			Mode:          cfg.Mode,
			VariableAttDB: att,
			Personality: host.Personality{
				Waveform: jammer.WaveformWGN,
				Uptime:   cfg.Uptime,
				Gain:     1,
			},
		}
		res, err := iperf.Run(link, jam)
		if err != nil {
			return fmt.Errorf("sweep at %v dB: %w", att, err)
		}
		out[i] = JamSweepPoint{VariableAttDB: att, Result: *res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BaselineBandwidthKbps measures the no-jammer UDP bandwidth (the dashed
// line of Fig. 10).
func BaselineBandwidthKbps(packets int, seed int64) (float64, error) {
	link := iperf.DefaultLink()
	link.Packets = packets
	link.Seed = seed
	res, err := iperf.Run(link, iperf.JammerConfig{Mode: iperf.JamOff})
	if err != nil {
		return 0, err
	}
	return res.BandwidthKbps, nil
}

// Fig5 returns the timeline analysis for a given uptime setting.
func Fig5(uptime time.Duration) core.Timelines {
	c := core.New()
	up := uint64(uptime / (40 * time.Nanosecond))
	if up == 0 {
		up = 1
	}
	if err := c.Jammer().SetUptimeSamples(up); err != nil {
		// Clamp to hardware max rather than fail the analysis.
		_ = c.Jammer().SetUptimeSamples(1 << 32)
	}
	return c.Timelines()
}

// ResourceReport lists the per-block and total FPGA utilization (the
// insets of Figs. 3 and 4).
type ResourceReport struct {
	XCorr, Energy, Jammer, Total string
}

// Resources builds the utilization report.
func Resources() ResourceReport {
	c := core.New()
	return ResourceReport{
		XCorr:  c.XCorr().Resources().String(),
		Energy: c.Energy().Resources().String(),
		Jammer: c.Jammer().Resources().String(),
		Total:  c.Resources().String(),
	}
}

// ReconfigLatency measures the modeled bus latency of a full jammer
// personality switch and of a complete detector reprogram (the §4.3
// reconfigurability result).
func ReconfigLatency() (personality, fullDetector time.Duration, err error) {
	c := core.New()
	h := host.New(c)
	personality, err = h.ProgramJammer(host.ReactiveShort)
	if err != nil {
		return 0, 0, err
	}
	d1, err := h.ProgramCorrelator(host.WiFiLongTemplate(), 0.5)
	if err != nil {
		return 0, 0, err
	}
	d2, err := h.ProgramEnergy(10, 0)
	if err != nil {
		return 0, 0, err
	}
	return personality, d1 + d2, nil
}

// MaxUDPTheoretical returns the nominal 54 Mbps iperf setting of §4.2 in
// Kbps, for the report header.
func MaxUDPTheoretical() float64 { return 54000 }
