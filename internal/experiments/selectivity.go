package experiments

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/wifi"
	"repro/internal/wifib"
	"repro/internal/wimax"
)

// Protocol selectivity: the paper's central "protocol-aware" claim is that
// template-based detection "enables the platform to react to only packets
// of a single wireless standard" (§2.3). This experiment quantifies it: a
// trigger-probability matrix of detector template × transmitted standard.
// The diagonal should approach 1 and the off-diagonal 0 (an energy
// detector, by contrast, fires on everything).

// Standard identifies a transmitted waveform family.
type Standard uint8

// The three standards the platform targets.
const (
	Std80211g Standard = iota
	Std80211b
	Std80216e
)

func (s Standard) String() string {
	switch s {
	case Std80211g:
		return "802.11g"
	case Std80211b:
		return "802.11b"
	case Std80216e:
		return "802.16e"
	default:
		return fmt.Sprintf("Standard(%d)", uint8(s))
	}
}

// AllStandards lists the selectivity matrix axes.
var AllStandards = []Standard{Std80211g, Std80211b, Std80216e}

// SelectivityResult is the trigger-probability matrix: rows are detector
// templates, columns transmitted standards.
type SelectivityResult struct {
	// Pd[tpl][sig] is the per-frame trigger probability.
	Pd [3][3]float64
	// EnergyPd[sig] is the energy-only detector's rate on each standard
	// (the non-selective baseline).
	EnergyPd [3]float64
	// Frames per cell.
	Frames int
}

// standard returns what the matrix needs of s: its native sample rate, its
// detector template, and its frame seq at that rate. The frame function
// modulates into storage it owns and reuses, so the returned frame is
// valid until its next call.
func standard(s Standard) (int, []complex128, func(seq int) (dsp.Samples, error), error) {
	var wave dsp.Samples
	switch s {
	case Std80211g:
		var txc wifi.TxCodec
		psdu := wifi.AppendFCS(make([]byte, 64))
		return wifi.SampleRate, host.WiFiShortTemplate(), func(seq int) (dsp.Samples, error) {
			var err error
			wave, err = txc.TxFrame(wave[:0], psdu, wifi.TxConfig{Rate: wifi.Rate24, ScramblerSeed: uint8(seq%126) + 1})
			return wave, err
		}, nil
	case Std80211b:
		psdu := make([]byte, 32)
		return wifib.SampleRate, host.WiFiBTemplate(), func(seq int) (dsp.Samples, error) {
			var err error
			wave, err = wifib.ModulateInto(wave, psdu, wifib.Rate11, uint8(seq%126)+1)
			return wave, err
		}, nil
	}
	cfg := wimax.Config{CellID: 1, Segment: 0}
	tpl, err := host.WiMAXTemplate(cfg)
	return wimax.ActualSampleRate, tpl, func(seq int) (dsp.Samples, error) {
		var err error
		wave, err = wimax.DownlinkFrameInto(wave, cfg, 4, int64(seq), 8*wimax.SymbolLen)
		return wave, err
	}, err
}

// Selectivity measures the full matrix at the given SNR with frames per
// cell. Each transmitted standard is one stream, judged by the three
// template detectors and the energy detector at once; the three streams
// run across the experiment worker pool, each seeded from its standard, so
// the matrix is identical at any pool width.
func Selectivity(frames int, snrDB float64, seed int64) (*SelectivityResult, error) {
	return measure(selectivityStreams(frames, snrDB, seed))
}

// selectivityStreams plans the matrix: one stream per transmitted
// standard, with one probe per template and a last one for the energy
// detector.
func selectivityStreams(frames int, snrDB float64, seed int64) ([]*stream, func() *SelectivityResult, error) {
	if frames <= 0 {
		return nil, nil, fmt.Errorf("experiments: frames must be positive")
	}
	var dets []host.Detector
	ss := make([]*stream, len(AllStandards))
	for si, std := range AllStandards {
		rate, tpl, frame, err := standard(std)
		if err != nil {
			return nil, nil, err
		}
		// The 802.11b SYNC template is purely real (BPSK), so its metric
		// floor against unrelated wideband signals is higher (the Q rail
		// contributes an unrejected noise term); its threshold sits
		// correspondingly higher.
		frac := 0.55
		if std == Std80211b {
			frac = 0.72
		}
		dets = append(dets, host.Detector{Template: tpl, ThresholdFrac: frac})
		ss[si] = &stream{sourceHz: rate, blocks: frames, lead: interFrameGap,
			block: overNoise(frame, interFrameGap, snrDB, impair.Config{}, seed+int64(std)*37)}
	}
	dets = append(dets, host.Detector{EnergyThresholdDB: host.EnergyRiseDB})
	hits := make([][3]tally, len(dets)) // [detector][transmitted standard]
	for si, s := range ss {
		for di, d := range dets {
			s.probes = append(s.probes, detectorProbe(d, &hits[di][si]))
		}
	}
	return ss, func() *SelectivityResult {
		res := &SelectivityResult{Frames: frames}
		for si := range AllStandards {
			for ti := range AllStandards {
				res.Pd[ti][si] = hits[ti][si].pd(frames)
			}
			res.EnergyPd[si] = hits[len(AllStandards)][si].pd(frames)
		}
		return res
	}, nil
}
