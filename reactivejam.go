// Package reactivejam is a software reproduction of "A Real-Time and
// Protocol-Aware Reactive Jamming Framework Built on Software-Defined
// Radios" (Nguyen et al., ACM SRIF 2014): a reactive jammer built from a
// cross-correlating preamble detector, an energy differentiator, a
// three-stage trigger state machine and a fast transmit controller, all
// modeled at the fidelity of the paper's USRP N210 FPGA implementation
// (25 MSPS baseband, 100 MHz hardware clock, 80 ns trigger-to-RF
// turnaround).
//
// The Framework type is the high-level entry point: configure a detector
// (WiFi short/long preamble templates, a WiMAX downlink preamble, a plain
// energy rise, or any custom template), pick a jamming personality
// (waveform, uptime, delay, gain), and stream complex baseband samples
// through Process. Detection, triggering and the jamming response all
// happen inside the sample loop with hardware-accurate latencies.
//
// Lower layers live in internal/: the 802.11g and 802.16e modems, the
// 5-port wired testbed of the paper's §4, an iperf-style bandwidth
// harness, and the experiment drivers that regenerate every figure and
// table of the paper (see DESIGN.md and EXPERIMENTS.md).
package reactivejam

import (
	"fmt"
	"io"
	"time"

	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/wimax"
)

// Waveform selects the jamming waveform preset (paper §2.4).
type Waveform uint8

// The three hardware waveform presets.
const (
	// WGN transmits pseudorandom wideband Gaussian noise.
	WGN Waveform = iota
	// Replay repetitively replays up to the 512 most recently received
	// samples.
	Replay
	// HostStream transmits the waveform the host streamed via
	// SetHostWaveform.
	HostStream
)

// Personality bundles the run-time jammer settings. Switching personalities
// costs only register-bus writes (≈1.2 µs), never an FPGA reprogram.
type Personality struct {
	// Name is the caller's label for the personality; the framework does
	// not read it.
	Name string
	// Waveform selects the TX preset.
	Waveform Waveform
	// Uptime is the jamming burst duration (40 ns .. ~40 s).
	Uptime time.Duration
	// Delay postpones the burst after the trigger for "surgical" jamming
	// of specific packet regions.
	Delay time.Duration
	// Gain is the TX amplitude scale (1.0 = unit-power waveform).
	Gain float64
}

// Stats mirrors the core's host-feedback counters (a snapshot of the
// telemetry counter block). Its fields are core.Stats's, in the same order,
// so one converts to the other.
type Stats struct {
	Samples              uint64
	XCorrDetections      uint64
	EnergyHighDetections uint64
	EnergyLowDetections  uint64
	JamTriggers          uint64
	JamSamples           uint64
	RegWrites            uint64
	HostPolls            uint64
}

// Timelines is the reactive-jamming latency budget (paper Fig. 5).
type Timelines struct {
	// EnergyDetect is the worst-case energy-rise detection latency.
	EnergyDetect time.Duration
	// XCorrDetect is the cross-correlation detection latency.
	XCorrDetect time.Duration
	// TXInit is the trigger-to-RF turnaround.
	TXInit time.Duration
	// JamBurst is the configured burst duration.
	JamBurst time.Duration
	// ResponseEnergy and ResponseXCorr are total system response times.
	ResponseEnergy time.Duration
	ResponseXCorr  time.Duration
}

// Framework is a complete reactive jamming platform instance: a simulated
// USRP N210 whose receive chain feeds the custom detection/jamming DSP
// core, plus the host-side register programming layer.
type Framework struct {
	radio *radio.N210
	host  *host.Host
	tel   *telemetry.Live
}

// New returns a framework tuned to WiFi channel 14 (2.484 GHz) with both
// TX and RX chains initialized, no detector armed, and a muted jammer.
func New() *Framework {
	r := radio.New()
	f := &Framework{radio: r, host: host.New(r.Core())}
	r.Start()
	return f
}

// Tune checks an RF center frequency against the SBX front end's range
// (400 MHz – 4.4 GHz); the model runs at complex baseband.
func (f *Framework) Tune(hz float64) error { return f.radio.Tune(hz) }

// SetSourceRate declares the sample rate of the stream passed to Process;
// the receive chain resamples it to the core's fixed 25 MSPS. Use
// 25_000_000 (the default) for native-rate input.
func (f *Framework) SetSourceRate(hz int) error { return f.radio.SetSourceRate(hz) }

// GroupDelayCycles returns the receive front end's group delay in hardware
// clock cycles at the current source rate — the allowance latency budgets
// anchored at the frame boundary entering the radio must add on top of the
// paper's detection timeline.
func (f *Framework) GroupDelayCycles() uint64 { return f.radio.GroupDelayCycles() }

// DetectEnergyRise arms the energy differentiator alone: the platform
// reacts to any in-band energy rise of at least thresholdDB (3–30 dB).
func (f *Framework) DetectEnergyRise(thresholdDB float64) error {
	return f.host.Arm(host.Detector{EnergyThresholdDB: thresholdDB})
}

// DetectWiFiShortPreamble arms the cross-correlator with the 802.11g short
// training sequence template at the given terminated-input false-alarm
// rate (triggers per second).
func (f *Framework) DetectWiFiShortPreamble(faPerSec float64) error {
	return f.host.Arm(host.Detector{Template: host.WiFiShortTemplate(), FATargetPerSec: faPerSec})
}

// DetectWiFiLongPreamble arms the cross-correlator with the 802.11g long
// training sequence template.
func (f *Framework) DetectWiFiLongPreamble(faPerSec float64) error {
	return f.host.Arm(host.Detector{Template: host.WiFiLongTemplate(), FATargetPerSec: faPerSec})
}

// DetectWiMAX arms both detectors for an 802.16e downlink (the §5 fusion
// configuration): preamble correlation for the given cell/segment OR an
// energy rise, whichever fires first.
func (f *Framework) DetectWiMAX(cellID, segment int) error {
	tpl, err := host.WiMAXTemplate(wimax.Config{CellID: cellID, Segment: segment})
	if err != nil {
		return err
	}
	return f.host.Arm(host.Detector{
		Template:          tpl,
		ThresholdFrac:     host.WiMAXThresholdFrac,
		EnergyThresholdDB: host.EnergyRiseDB,
	})
}

// SetPersonality switches the jammer behavior at run time and returns the
// modeled register-bus latency of the switch.
func (f *Framework) SetPersonality(p Personality) (time.Duration, error) {
	if p.Waveform > HostStream {
		return 0, fmt.Errorf("reactivejam: unknown waveform %d", p.Waveform)
	}
	return f.host.ProgramJammer(host.Personality{
		Waveform: jammer.Waveform(p.Waveform),
		Uptime:   p.Uptime,
		Delay:    p.Delay,
		Gain:     p.Gain,
	})
}

// SetHostWaveform supplies the buffer transmitted by the HostStream preset.
func (f *Framework) SetHostWaveform(buf []complex128) {
	f.radio.Core().Jammer().SetHostStream(buf)
}

// Process streams received complex baseband through the platform and
// returns the transmit output (zero while not jamming). The output is at
// the core's native 25 MSPS regardless of the source rate.
//
// The returned slice is the radio's own transmit buffer, reused so that a
// warm stream allocates nothing per call: it stays valid only until the
// next call to Process. Callers that keep transmit output across calls must
// copy it.
func (f *Framework) Process(rx []complex128) ([]complex128, error) {
	return f.radio.Process(rx)
}

// Stats returns the host-feedback counters.
func (f *Framework) Stats() Stats {
	return Stats(f.radio.Core().Stats())
}

// Poll reads the feedback counters the way the GNU Radio host polls the
// core's "Synchro Flags" — identical to Stats except the poll itself is
// counted and journaled through the telemetry layer.
func (f *Framework) Poll() Stats {
	return Stats(f.host.PollFeedback())
}

// ResetStats clears the feedback counters.
func (f *Framework) ResetStats() { f.radio.Core().ResetStats() }

// Timelines reports the latency budget for the current configuration.
func (f *Framework) Timelines() Timelines {
	tl := f.radio.Core().Timelines()
	return Timelines{
		EnergyDetect:   tl.TenDet,
		XCorrDetect:    tl.TxcorrDet,
		TXInit:         tl.TInit,
		JamBurst:       tl.TJam,
		ResponseEnergy: tl.TRespEnergy,
		ResponseXCorr:  tl.TRespXCorr,
	}
}

// Elapsed returns the simulated hardware time since Start.
func (f *Framework) Elapsed() time.Duration {
	return f.radio.Core().Clock().Now()
}

// TelemetrySummary is the one-line shutdown digest of a telemetry-enabled
// run.
type TelemetrySummary struct {
	// Samples and JamTriggers are the headline counters.
	Samples     uint64
	JamTriggers uint64
	// ReactionP50 and ReactionP99 summarize the frame-start→RF-on latency
	// histogram (zero when no frame markers were recorded).
	ReactionP50 time.Duration
	ReactionP99 time.Duration
	// Events is the number of events currently held in the journal.
	Events int
}

// EnableTelemetry attaches a live event recorder (journal, histograms and
// counters) to the core. Idempotent; returns the recorder for direct access
// to snapshots and the trace writer.
func (f *Framework) EnableTelemetry() *telemetry.Live {
	if f.tel == nil {
		f.tel = telemetry.NewLive(telemetry.DefaultJournalDepth)
		f.radio.Core().SetRecorder(f.tel)
	}
	return f.tel
}

// TelemetryEnabled reports whether a live recorder is attached.
func (f *Framework) TelemetryEnabled() bool { return f.tel != nil }

// Telemetry returns the attached live recorder, or nil when telemetry is
// disabled.
func (f *Framework) Telemetry() *telemetry.Live { return f.tel }

// MarkFrame journals a frame-start marker for a frame beginning
// offsetSourceSamples into the next buffer handed to Process (at the
// declared source rate). Reaction-latency histograms measure from these
// markers to the first jamming sample on air.
func (f *Framework) MarkFrame(offsetSourceSamples int) {
	f.radio.MarkFrame(offsetSourceSamples)
}

// WriteTrace dumps the event journal as Chrome trace_event JSON
// (chrome://tracing / Perfetto). Fails when telemetry is disabled.
func (f *Framework) WriteTrace(w io.Writer) error {
	if f.tel == nil {
		return fmt.Errorf("reactivejam: telemetry not enabled")
	}
	return f.tel.WriteTrace(w)
}

// Summary digests the current telemetry state. Zero-valued when telemetry
// is disabled.
func (f *Framework) Summary() TelemetrySummary {
	if f.tel == nil {
		return TelemetrySummary{}
	}
	snap := f.tel.Snapshot()
	sum := TelemetrySummary{
		Samples:     snap.Counters.Samples,
		JamTriggers: snap.Counters.JamTriggers,
		Events:      snap.Events,
	}
	if h := snap.Histogram(telemetry.HistReaction); h.Count > 0 {
		sum.ReactionP50 = h.P50Duration()
		sum.ReactionP99 = h.P99Duration()
	}
	return sum
}
