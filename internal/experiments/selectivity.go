package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/host"
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

// sourceRate returns the native sample rate of each standard's waveform.
func sourceRate(s Standard) int {
	switch s {
	case Std80211g:
		return wifi.SampleRate
	case Std80211b:
		return wifib.SampleRate
	default:
		return wimax.ActualSampleRate
	}
}

// template returns the detector template for a standard.
func template(s Standard) ([]complex128, error) {
	switch s {
	case Std80211g:
		return host.WiFiShortTemplate(), nil
	case Std80211b:
		return host.WiFiBTemplate(), nil
	default:
		return host.WiMAXTemplate(wimax.Config{CellID: 1, Segment: 0})
	}
}

// standardFrame generates one frame of the standard at its native rate.
func standardFrame(s Standard, seq int) (dsp.Samples, error) {
	switch s {
	case Std80211g:
		psdu := wifi.AppendFCS(make([]byte, 64))
		return wifi.Modulate(psdu, wifi.TxConfig{
			Rate: wifi.Rate24, ScramblerSeed: uint8(seq%126) + 1,
		})
	case Std80211b:
		return wifib.Modulate(make([]byte, 32), wifib.Rate11, uint8(seq%126)+1)
	default:
		frame, err := wimax.DownlinkFrame(wimax.Config{CellID: 1, Segment: 0}, 4, int64(seq))
		if err != nil {
			return nil, err
		}
		return frame[:8*wimax.SymbolLen], nil
	}
}

// Selectivity measures the full matrix at the given SNR with frames per
// cell. All matrix cells (template × signal, plus the energy-only row) run
// across the experiment worker pool; every cell is seeded independently,
// so the matrix is identical at any pool width.
func Selectivity(frames int, snrDB float64, seed int64) (*SelectivityResult, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("experiments: frames must be positive")
	}
	res := &SelectivityResult{Frames: frames}

	// The templates are generated once, sequentially, and shared read-only
	// by the cells.
	type cell struct {
		ti, si   int // ti == -1 marks the energy-only row
		tpl      []complex128
		frac     float64
		energyDB float64
	}
	var cells []cell
	for ti, tplStd := range AllStandards {
		tpl, err := template(tplStd)
		if err != nil {
			return nil, err
		}
		// The 802.11b SYNC template is purely real (BPSK), so its metric
		// floor against unrelated wideband signals is higher (the Q rail
		// contributes an unrejected noise term); its threshold sits
		// correspondingly higher.
		frac := 0.55
		if tplStd == Std80211b {
			frac = 0.72
		}
		for si := range AllStandards {
			cells = append(cells, cell{ti: ti, si: si, tpl: tpl, frac: frac})
		}
	}
	for si := range AllStandards {
		cells = append(cells, cell{ti: -1, si: si, energyDB: host.EnergyRiseDB})
	}

	err := forEach(len(cells), func(i int) error {
		c := cells[i]
		pd, err := selectivityCell(c.tpl, c.frac, c.energyDB, AllStandards[c.si],
			frames, snrDB, seed)
		if err != nil {
			return err
		}
		if c.ti < 0 {
			res.EnergyPd[c.si] = pd
		} else {
			res.Pd[c.ti][c.si] = pd
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// selectivityCell measures one (template, signal) trigger rate. A nil
// template with energyDB > 0 measures the energy-only baseline.
func selectivityCell(tpl []complex128, thresholdFrac, energyDB float64, sig Standard,
	frames int, snrDB float64, seed int64) (float64, error) {
	cfg := DetectionConfig{
		Detector: host.Detector{
			Template: tpl, ThresholdFrac: thresholdFrac, EnergyThresholdDB: energyDB,
		},
		FramesPerPoint: frames,
		SNRsDB:         []float64{snrDB},
		Seed:           seed,
	}
	r, counter, _, err := buildDetector(cfg)
	if err != nil {
		return 0, err
	}
	if err := r.SetSourceRate(sourceRate(sig)); err != nil {
		return 0, err
	}
	noise := dsp.NewNoiseSource(noiseFloorPower, seed+int64(sig)*37)
	amp := math.Sqrt(noiseFloorPower * dsp.FromDB(snrDB))
	hits := 0
	for f := 0; f < frames; f++ {
		wave, err := standardFrame(sig, f)
		if err != nil {
			return 0, err
		}
		buf := make(dsp.Samples, len(wave)+2*interFrameGap)
		copy(buf[interFrameGap:], wave)
		scale := amp / math.Sqrt(wave.Power())
		for i := range buf {
			buf[i] = buf[i]*complex(scale, 0) + noise.Sample()
		}
		before := counter()
		if _, err := r.Process(buf); err != nil {
			return 0, err
		}
		if counter() > before {
			hits++
		}
	}
	return float64(hits) / float64(frames), nil
}
