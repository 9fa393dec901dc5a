package experiments

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/iperf"
	"repro/internal/testbed"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// Small budgets keep the unit tests quick; cmd/experiments and the benches
// run the full-size versions.
const (
	testFrames  = 60
	testPackets = 10
)

func TestFig6SingleVsFullFrames(t *testing.T) {
	single, err := CharacterizeDetection(Fig6Config(SingleLongPreamble, false, testFrames))
	if err != nil {
		t.Fatal(err)
	}
	full, err := CharacterizeDetection(Fig6Config(FullFrame, false, testFrames))
	if err != nil {
		t.Fatal(err)
	}
	// Pd must be monotone-ish in SNR and full frames must beat single
	// preambles in the transition region (two long preambles per frame).
	for i := range single.Points {
		s, f := single.Points[i], full.Points[i]
		if f.Pd+0.15 < s.Pd {
			t.Errorf("SNR %v: full-frame Pd %v below single-preamble Pd %v",
				s.SNRdB, f.Pd, s.Pd)
		}
	}
	last := len(full.Points) - 1
	if full.Points[last].Pd < 0.99 {
		t.Errorf("full-frame Pd at %v dB = %v, want ~1",
			full.Points[last].SNRdB, full.Points[last].Pd)
	}
	if single.Points[0].Pd > 0.3 {
		t.Errorf("single-preamble Pd at %v dB = %v, want low",
			single.Points[0].SNRdB, single.Points[0].Pd)
	}
}

func TestFig6ThresholdTradeoff(t *testing.T) {
	// The tighter false-alarm target (0.083/s) must not out-detect the
	// looser one (0.52/s) in the transition region.
	loose, err := CharacterizeDetection(Fig6Config(SingleLongPreamble, false, testFrames))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := CharacterizeDetection(Fig6Config(SingleLongPreamble, true, testFrames))
	if err != nil {
		t.Fatal(err)
	}
	for i := range loose.Points {
		if tight.Points[i].Pd > loose.Points[i].Pd+0.1 {
			t.Errorf("SNR %v: tight threshold Pd %v above loose %v",
				loose.Points[i].SNRdB, tight.Points[i].Pd, loose.Points[i].Pd)
		}
	}
}

func TestFig7ShortPreambleStrong(t *testing.T) {
	res, err := CharacterizeDetection(Fig7Config(testFrames))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: >90% at -3 dB, >99% above 3 dB. Our idealized front end meets
	// those marks within a couple of dB; hold it to the 0 dB/4 dB points.
	for _, p := range res.Points {
		if p.SNRdB >= 0 && p.Pd < 0.9 {
			t.Errorf("short-preamble Pd at %v dB = %v, want > 0.9", p.SNRdB, p.Pd)
		}
		if p.SNRdB >= 4 && p.Pd < 0.99 {
			t.Errorf("short-preamble Pd at %v dB = %v, want > 0.99", p.SNRdB, p.Pd)
		}
	}
}

func TestFig8EnergyShape(t *testing.T) {
	res, err := CharacterizeDetection(Fig8Config(testFrames))
	if err != nil {
		t.Fatal(err)
	}
	var low, high DetectionPoint
	excessive := false
	for _, p := range res.Points {
		if p.SNRdB == -6 {
			low = p
		}
		if p.SNRdB == 14 {
			high = p
		}
		if p.DetectionsPerFrame > 1.05 {
			excessive = true
		}
	}
	if low.Pd != 0 {
		t.Errorf("energy Pd below the noise floor = %v, want 0", low.Pd)
	}
	if high.Pd < 0.99 {
		t.Errorf("energy Pd at 14 dB = %v, want ~1", high.Pd)
	}
	if math.Abs(high.DetectionsPerFrame-1) > 0.05 {
		t.Errorf("detections/frame at 14 dB = %v, want exactly 1", high.DetectionsPerFrame)
	}
	if !excessive {
		t.Error("no excessive-detection region found in the transition band")
	}
	if res.FalseAlarmsPerSec != 0 {
		t.Errorf("energy FA rate %v/s, paper measures 0", res.FalseAlarmsPerSec)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := CharacterizeDetection(DetectionConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := Fig8Config(1)
	cfg.SNRsDB = nil
	if _, err := CharacterizeDetection(cfg); err == nil {
		t.Error("no SNR points accepted")
	}
	cfg = Fig8Config(1)
	cfg.EnergyThresholdDB = 0
	if _, err := CharacterizeDetection(cfg); err == nil {
		t.Error("no detector armed accepted")
	}
	// The counted event follows from the armed detectors; a set Event is
	// a caller's mistake, not a choice.
	cfg = Fig8Config(1)
	cfg.Event = trigger.EventEnergyHigh
	if _, err := CharacterizeDetection(cfg); err == nil {
		t.Error("set Event accepted")
	}
}

// TestFrameSourceMatchesModulate pins the reused-buffer frame synthesis
// against a fresh wifi.Modulate of the same PSDU (the per-frame form it
// replaced), sample for sample, for every frame kind, and checks that a
// warm source frames without allocating.
func TestFrameSourceMatchesModulate(t *testing.T) {
	const seed = 5
	for _, kind := range []FrameKind{FullFrame, SingleLongPreamble, SingleShortPreamble} {
		src := newFrameSource(kind, seed)
		for f := 0; f < 4; f++ {
			var want dsp.Samples
			switch kind {
			case SingleLongPreamble:
				want = wifi.ModulatePseudoFrame(wifi.PseudoLong)
			case SingleShortPreamble:
				want = wifi.ModulatePseudoFrame(wifi.PseudoShort)
			default:
				psdu := make([]byte, 64)
				for i := range psdu {
					psdu[i] = byte((f + i) * 31)
				}
				var err error
				want, err = wifi.Modulate(wifi.AppendFCS(psdu), wifi.TxConfig{
					Rate: wifi.Rate24, ScramblerSeed: uint8((seed+f)%126) + 1,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := src.frame(f)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v frame %d: %d samples, want %d equal to wifi's", kind, f, len(got), len(want))
			}
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = src.frame(7) }); n != 0 {
			t.Errorf("%v: a warm frame source allocates %v times per frame", kind, n)
		}
	}
}

func TestTable1MatchesTestbed(t *testing.T) {
	tab := Table1()
	if tab[0][1] != -51.0 || tab[2][0] != -25.2 {
		t.Errorf("Table1 = %v", tab)
	}
	if !math.IsNaN(tab[3][4]) {
		t.Error("isolated pair should be NaN")
	}
	_ = testbed.NumPorts
}

func TestFig5Timelines(t *testing.T) {
	tl := Fig5(100 * time.Microsecond)
	if tl.TxcorrDet != 2560*time.Nanosecond || tl.TenDet != 1280*time.Nanosecond {
		t.Errorf("detection timelines %+v", tl)
	}
	if tl.TInit != 80*time.Nanosecond {
		t.Errorf("TInit = %v", tl.TInit)
	}
	// Paper: "less than 1.36µs if using energy detection, and 2.64µs using
	// cross-correlation detection".
	if tl.TRespEnergy > 1360*time.Nanosecond || tl.TRespXCorr > 2640*time.Nanosecond {
		t.Errorf("response times %+v", tl)
	}
	// Clamping path for absurd uptimes.
	tl = Fig5(0)
	if tl.TJam <= 0 {
		t.Errorf("TJam = %v", tl.TJam)
	}
}

func TestResourcesReport(t *testing.T) {
	r := Resources()
	if r.XCorr != "Slices:2613 FFs:2647 BRAMs:12 LUTs:2818 IOBs:0 DSP_48:2" {
		t.Errorf("xcorr resources %q", r.XCorr)
	}
	if r.Energy != "Slices:1262 FFs:1313 BRAMs:0 LUTs:2513 IOBs:0 DSP_48:6" {
		t.Errorf("energy resources %q", r.Energy)
	}
	if r.Total == "" || r.Jammer == "" {
		t.Error("missing totals")
	}
}

func TestReconfigLatency(t *testing.T) {
	p, d, err := ReconfigLatency()
	if err != nil {
		t.Fatal(err)
	}
	// Personality: 4 registers × 300 ns.
	if p != 1200*time.Nanosecond {
		t.Errorf("personality switch %v", p)
	}
	// Full detector: 15 correlator + 3 energy registers.
	if d != 5400*time.Nanosecond {
		t.Errorf("detector reprogram %v", d)
	}
}

func TestFig12WiMAXOperatingPoint(t *testing.T) {
	res, err := Fig12WiMAX(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: xcorr alone misses ~2/3; combined detects 100% with bursts in
	// 1:1 correspondence with frames.
	if res.XCorrOnlyPd < 0.1 || res.XCorrOnlyPd > 0.6 {
		t.Errorf("xcorr-only Pd = %v, want ~1/3", res.XCorrOnlyPd)
	}
	if res.CombinedPd != 1 {
		t.Errorf("combined Pd = %v, want 1.0", res.CombinedPd)
	}
	if !res.OneToOne {
		t.Errorf("bursts %d vs frames %d: not 1:1", res.JamBursts, res.Frames)
	}
	if _, err := Fig12WiMAX(0, 1); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestJamSweepOrdering(t *testing.T) {
	// Tiny sweep checking the headline result: at a mid-power point the
	// continuous jammer is deadliest, 0.1 ms next, 0.01 ms gentlest.
	mk := func(mode iperf.JamMode, up time.Duration) JamSweepConfig {
		cfg := DefaultJamSweep(mode, up)
		cfg.Packets = testPackets
		cfg.PayloadBytes = 500
		cfg.Attenuations = []float64{18}
		return cfg
	}
	cont, err := RunJamSweep(mk(iperf.JamContinuous, 0))
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunJamSweep(mk(iperf.JamReactive, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	short, err := RunJamSweep(mk(iperf.JamReactive, 10*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	c, l, s := cont[0].Result, long[0].Result, short[0].Result
	if c.PRR > l.PRR+0.01 {
		t.Errorf("continuous PRR %v above 0.1ms PRR %v", c.PRR, l.PRR)
	}
	if l.PRR > s.PRR+0.2 {
		t.Errorf("0.1ms PRR %v above 0.01ms PRR %v", l.PRR, s.PRR)
	}
	if !c.LinkDropped {
		t.Error("continuous jammer at 18 dB attenuation should trip CCA")
	}
}

func TestBaselineBandwidthInPaperRange(t *testing.T) {
	bw, err := BaselineBandwidthKbps(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~29 Mbps achieved of the 54 Mbps offered.
	if bw < 25000 || bw > 34000 {
		t.Errorf("baseline bandwidth %v Kbps, want 25-34 Mbps", bw)
	}
}

func TestAblationCorrelators(t *testing.T) {
	rows, err := AblationCorrelators([]float64{-4, 4}, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Full precision must dominate the 1-bit hardware, 128 taps must
		// dominate 64, and the uncorrected-rate template must be useless.
		if r.FullPrecisionPd+0.1 < r.HardwarePd {
			t.Errorf("SNR %v: full precision %v below hardware %v",
				r.SNRdB, r.FullPrecisionPd, r.HardwarePd)
		}
		if r.FullPrecision128Pd+0.1 < r.FullPrecisionPd {
			t.Errorf("SNR %v: 128 taps %v below 64 taps %v",
				r.SNRdB, r.FullPrecision128Pd, r.FullPrecisionPd)
		}
		if r.RawRateTemplatePd > 0.1 {
			t.Errorf("SNR %v: raw-rate template Pd %v, should collapse",
				r.SNRdB, r.RawRateTemplatePd)
		}
	}
	if _, err := AblationCorrelators([]float64{0}, 0, 1); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestAblationEnergyWindow(t *testing.T) {
	rows, err := AblationEnergyWindow([]int{8, 32, 64}, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].LatencyUS != 32.0/25 {
		t.Errorf("N=32 latency %v µs, want 1.28", rows[1].LatencyUS)
	}
	for _, r := range rows {
		if r.Pd < 0.9 {
			t.Errorf("window %d: Pd %v for a 12 dB burst", r.Window, r.Pd)
		}
	}
	if _, err := AblationEnergyWindow([]int{0}, 10, 1); err == nil {
		t.Error("invalid window accepted")
	}
	if _, err := AblationEnergyWindow([]int{8}, 0, 1); err == nil {
		t.Error("zero bursts accepted")
	}
}

func TestAblationWaveforms(t *testing.T) {
	rows, err := AblationWaveforms(6, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d waveform rows", len(rows))
	}
	// At full power (5 dB pad) every waveform should bite; WGN at least
	// must devastate the link.
	if rows[0].PRR > 0.35 {
		t.Errorf("WGN PRR %v at near-full power", rows[0].PRR)
	}
}

func TestSelectivityMatrix(t *testing.T) {
	res, err := Selectivity(25, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range AllStandards {
		if res.Pd[i][i] < 0.9 {
			t.Errorf("%v template misses its own standard: Pd %.2f",
				AllStandards[i], res.Pd[i][i])
		}
		for j := range AllStandards {
			if i != j && res.Pd[i][j] > 0.1 {
				t.Errorf("%v template cross-triggers on %v: Pd %.2f",
					AllStandards[i], AllStandards[j], res.Pd[i][j])
			}
		}
		if res.EnergyPd[i] < 0.9 {
			t.Errorf("energy detector misses %v: Pd %.2f", AllStandards[i], res.EnergyPd[i])
		}
	}
	if _, err := Selectivity(0, 15, 1); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestAblationImpairments(t *testing.T) {
	rows, err := AblationImpairments(60, -3, 5)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, r := range rows {
		byLabel[r.Label] = r.Pd
	}
	if byLabel["ideal"] < 0.3 {
		t.Errorf("ideal Pd %v unexpectedly low", byLabel["ideal"])
	}
	// The calibrated-USRP front end must cost detection probability, and
	// uncorrected DC must kill the sign-bit correlator outright.
	if byLabel["typical-usrp"] > byLabel["ideal"] {
		t.Errorf("typical-usrp Pd %v above ideal %v", byLabel["typical-usrp"], byLabel["ideal"])
	}
	if byLabel["dc-uncalibrated"] > 0.05 {
		t.Errorf("uncalibrated DC offset Pd %v, want ~0 (frozen slicer)", byLabel["dc-uncalibrated"])
	}
	if _, err := AblationImpairments(0, -3, 1); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestAblationSoftDecision(t *testing.T) {
	rows, err := AblationSoftDecision([]int{0, 4}, 25, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].HardFER != 0 || rows[0].SoftFER != 0 {
		t.Errorf("clean frames erred: %+v", rows[0])
	}
	// Under the burst, the soft receiver must do no worse than hard.
	if rows[1].SoftFER > rows[1].HardFER+0.05 {
		t.Errorf("soft FER %v above hard FER %v under burst", rows[1].SoftFER, rows[1].HardFER)
	}
	if _, err := AblationSoftDecision([]int{1}, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := AblationSoftDecision([]int{-1}, 5, 1); err == nil {
		t.Error("negative burst accepted")
	}
}
