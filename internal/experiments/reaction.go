package experiments

import (
	"fmt"
	"time"

	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/wifi"
)

// ReactionConfig describes a reaction-latency measurement run: 802.11g
// frames streamed at the WiFi source rate into an energy-armed jammer with
// the telemetry recorder attached, measuring frame-start→RF-on per frame.
type ReactionConfig struct {
	// Frames is the number of measured frames.
	Frames int
	// SNRdB is the frame power over the noise floor. The default, 11 dB,
	// sits just above the 10 dB energy threshold — the marginal regime the
	// paper's 1.28 µs worst case describes, where the 32-sample window must
	// fill with the new level before the comparison crosses. Well above
	// threshold the detector fires earlier (fewer samples suffice).
	SNRdB float64
	// Seed drives noise and payload randomness.
	Seed int64
	// Cell, when non-empty and a fleet sink is installed (SetFleetSink),
	// names the fleet cell this run's telemetry is absorbed into on
	// completion.
	Cell string
}

// ReactionResult is the measured latency distribution plus the recorder
// that captured it (for trace export and histogram tables).
type ReactionResult struct {
	// Frames and Triggered count the offered and jammed frames.
	Frames    int
	Triggered uint64
	// ReactionP50/P99 summarize the frame-start→RF-on histogram; the
	// paper's single-stage energy budget is Ten_det (1.28 µs) + Tinit
	// (80 ns) = 1.36 µs, plus the receive front end's group delay.
	ReactionP50 time.Duration
	ReactionP99 time.Duration
	// TriggerToRFP50 is the trigger-fire→RF-on turnaround (Tinit, 80 ns).
	TriggerToRFP50 time.Duration
	// Snapshot is the full telemetry state at the end of the run.
	Snapshot telemetry.Snapshot
	// Recorder is the live recorder, still attached to the core.
	Recorder *telemetry.Live
}

// reactionUptime is the reaction probe's jamming burst.
const reactionUptime = 10 * time.Microsecond

// WiFiFrontEndGroupDelayCycles returns the group delay, in hardware clock
// cycles, of the DDC a WiFi-rate (20 MSPS) source passes through before the
// detectors see it. Latency budgets anchored at the frame boundary entering
// the radio must allow for it on top of the paper's detection timeline.
func WiFiFrontEndGroupDelayCycles() uint64 {
	r := radio.New()
	if err := r.SetSourceRate(wifi.SampleRate); err != nil {
		return 0
	}
	return r.GroupDelayCycles()
}

// MeasureReactionLatency streams WiFi frames with per-frame telemetry
// markers through an energy-triggered jammer and returns the reaction
// latency distribution — the end-to-end measurement behind Fig. 5's
// Tresp(energy) < 1.36 µs line.
func MeasureReactionLatency(cfg ReactionConfig) (*ReactionResult, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("experiments: Frames must be positive")
	}
	if cfg.SNRdB == 0 {
		cfg.SNRdB = 11
	}

	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	p := detectorProbe(host.Detector{EnergyThresholdDB: host.EnergyRiseDB}, new(tally))
	p.jam, p.rec = host.Personality{Waveform: jammer.WaveformWGN, Uptime: reactionUptime, Gain: 1}, live
	const gap = 512 // quiet samples on either side of a frame (re-arm the detector)
	frame := newFrameSource(FullFrame, cfg.Seed).frame
	s := &stream{sourceHz: wifi.SampleRate, blocks: cfg.Frames, lead: gap, probes: []probe{p},
		block: overNoise(frame, gap, cfg.SNRdB, impair.Config{}, cfg.Seed+77)}
	if err := s.run(); err != nil {
		return nil, err
	}

	snap := live.Snapshot()
	reportCell(cfg.Cell, snap, uint64(cfg.Frames), snap.Counters.JamTriggers)
	res := &ReactionResult{
		Frames:    cfg.Frames,
		Triggered: snap.Counters.JamTriggers,
		Snapshot:  snap,
		Recorder:  live,
	}
	if hr := snap.Histogram(telemetry.HistReaction); hr.Count > 0 {
		res.ReactionP50 = hr.P50Duration()
		res.ReactionP99 = hr.P99Duration()
	}
	if ht := snap.Histogram(telemetry.HistTriggerToRF); ht.Count > 0 {
		res.TriggerToRFP50 = telemetry.CyclesToDuration(ht.P50)
	}
	return res, nil
}
