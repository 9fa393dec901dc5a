//go:build !race

// The golden is kept out of -race builds: under the race detector it takes
// over 100 s on two cores, and the determinism-across-widths tests in
// parallel_test.go and fleetobs_test.go keep the same code paths under it.

package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iperf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden")

// The statistical budgets go run ./cmd/experiments prints by default.
const (
	goldenFrames      = 300
	goldenPackets     = 40
	goldenWiMAXFrames = 60
)

// figureLines collects one name=value line per seeded value. Values print
// with %v, which for a float64 is the shortest decimal that reads back to
// the same bits, so a comparison of the lines is a comparison of the values.
type figureLines struct{ b strings.Builder }

// put writes one line: the name is format applied to all but the last
// argument, the value is the last argument.
func (f *figureLines) put(format string, args ...any) {
	fmt.Fprintf(&f.b, format+"=%v\n", args...)
}

func goldenDetection(f *figureLines, name string, cfg DetectionConfig) error {
	res, err := CharacterizeDetection(cfg)
	if err != nil {
		return err
	}
	f.put("%s_fa_per_sec", name, res.FalseAlarmsPerSec)
	for _, p := range res.Points {
		f.put("%s_pd_%+gdB", name, p.SNRdB, p.Pd)
		f.put("%s_detections_per_frame_%+gdB", name, p.SNRdB, p.DetectionsPerFrame)
	}
	return nil
}

// goldenSections lists every seeded figure in file order. Each section
// writes its own lines, so the sections run concurrently: one after the
// other they would leave a core idle through Fig. 12 and the false-alarm
// calibrations, which run on one goroutine.
var goldenSections = []struct {
	name string
	run  func(*figureLines) error
}{
	{"fig5", func(f *figureLines) error {
		tl := Fig5(100 * time.Microsecond)
		f.put("fig5_ten_det", tl.TenDet)
		f.put("fig5_txcorr_det", tl.TxcorrDet)
		f.put("fig5_tinit", tl.TInit)
		f.put("fig5_tresp_energy", tl.TRespEnergy)
		f.put("fig5_tresp_xcorr", tl.TRespXCorr)
		f.put("fig5_tjam", tl.TJam)
		return nil
	}},
	{"fig6", func(f *figureLines) error {
		for _, c := range []struct {
			name  string
			kind  FrameKind
			tight bool
		}{
			{"fig6_single_loose", SingleLongPreamble, false},
			{"fig6_single_tight", SingleLongPreamble, true},
			{"fig6_full_loose", FullFrame, false},
			{"fig6_full_tight", FullFrame, true},
		} {
			if err := goldenDetection(f, c.name, Fig6Config(c.kind, c.tight, goldenFrames)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig7", func(f *figureLines) error { return goldenDetection(f, "fig7", Fig7Config(goldenFrames)) }},
	{"fig8", func(f *figureLines) error { return goldenDetection(f, "fig8", Fig8Config(goldenFrames)) }},
	{"table1", func(f *figureLines) error {
		for i, row := range Table1() {
			for j, v := range row {
				f.put("table1_in%d_out%d", i+1, j+1, v)
			}
		}
		return nil
	}},
	{"fig10", func(f *figureLines) error {
		base, err := BaselineBandwidthKbps(goldenPackets, 1)
		if err != nil {
			return err
		}
		f.put("fig10_jammer_off_kbps", base)
		for _, ty := range []struct {
			name   string
			mode   iperf.JamMode
			uptime time.Duration
		}{
			{"continuous", iperf.JamContinuous, 0},
			{"reactive_0.1ms", iperf.JamReactive, 100 * time.Microsecond},
			{"reactive_0.01ms", iperf.JamReactive, 10 * time.Microsecond},
		} {
			cfg := DefaultJamSweep(ty.mode, ty.uptime)
			cfg.Packets = goldenPackets
			pts, err := RunJamSweep(cfg)
			if err != nil {
				return err
			}
			for _, p := range pts {
				f.put("fig10_%s_att%gdB_sir_db", ty.name, p.VariableAttDB, p.Result.SIRdB)
				f.put("fig10_%s_att%gdB_kbps", ty.name, p.VariableAttDB, p.Result.BandwidthKbps)
				f.put("fig10_%s_att%gdB_prr", ty.name, p.VariableAttDB, p.Result.PRR)
			}
		}
		return nil
	}},
	{"fig12", func(f *figureLines) error {
		res, err := Fig12WiMAX(goldenWiMAXFrames, 5)
		if err != nil {
			return err
		}
		f.put("fig12_frames", res.Frames)
		f.put("fig12_xcorr_only_pd", res.XCorrOnlyPd)
		f.put("fig12_combined_pd", res.CombinedPd)
		f.put("fig12_jam_bursts", res.JamBursts)
		f.put("fig12_one_to_one", res.OneToOne)
		return nil
	}},
	{"selectivity", func(f *figureLines) error {
		res, err := Selectivity(goldenFrames/3, 15, 9)
		if err != nil {
			return err
		}
		for ti, tpl := range AllStandards {
			for si, sig := range AllStandards {
				f.put("selectivity_pd_%v_on_%v", tpl, sig, res.Pd[ti][si])
			}
		}
		for si, sig := range AllStandards {
			f.put("selectivity_energy_pd_%v", sig, res.EnergyPd[si])
		}
		return nil
	}},
	{"ablations", func(f *figureLines) error {
		cr, err := AblationCorrelators([]float64{-6, -2, 2, 6}, 200, 3)
		if err != nil {
			return err
		}
		for _, r := range cr {
			f.put("ablation_correlator_%+gdB_hardware_pd", r.SNRdB, r.HardwarePd)
			f.put("ablation_correlator_%+gdB_float64_pd", r.SNRdB, r.FullPrecisionPd)
			f.put("ablation_correlator_%+gdB_float128t_pd", r.SNRdB, r.FullPrecision128Pd)
			f.put("ablation_correlator_%+gdB_raw_rate_pd", r.SNRdB, r.RawRateTemplatePd)
			f.put("ablation_correlator_%+gdB_hardware_threshold", r.SNRdB, r.HardwareThreshold)
			f.put("ablation_correlator_%+gdB_soft_threshold_factor", r.SNRdB, r.SoftThresholdFactor)
		}
		ew, err := AblationEnergyWindow([]int{8, 16, 32, 64, 128}, 200, 4)
		if err != nil {
			return err
		}
		for _, r := range ew {
			f.put("ablation_energy_window_%d_latency_us", r.Window, r.LatencyUS)
			f.put("ablation_energy_window_%d_pd", r.Window, r.Pd)
		}
		ir, err := AblationImpairments(200, -3, 5)
		if err != nil {
			return err
		}
		for _, r := range ir {
			f.put("ablation_impairments_%s_pd", strings.ReplaceAll(r.Label, " ", "_"), r.Pd)
		}
		sd, err := AblationSoftDecision([]int{0, 2, 4, 8, 16}, 60, 6)
		if err != nil {
			return err
		}
		for _, r := range sd {
			f.put("ablation_soft_decision_burst%d_hard_fer", r.BurstSymbols, r.HardFER)
			f.put("ablation_soft_decision_burst%d_soft_fer", r.BurstSymbols, r.SoftFER)
		}
		wf, err := AblationWaveforms(12, 5, 2)
		if err != nil {
			return err
		}
		for _, r := range wf {
			f.put("ablation_waveform_%v_prr", r.Waveform, r.PRR)
			f.put("ablation_waveform_%v_sir_db", r.Waveform, r.SIRdB)
		}
		return nil
	}},
}

// TestFiguresGolden pins every seeded figure of the evaluation, at the
// budgets the experiments command prints by default, to
// testdata/figures.golden line for line: the figures are seeded, so any
// difference is a behaviour change. Regenerate after an intended change
// with: go test ./internal/experiments -run Golden -update
func TestFiguresGolden(t *testing.T) {
	out := make([]figureLines, len(goldenSections))
	errs := make([]error, len(goldenSections))
	var wg sync.WaitGroup
	for i, s := range goldenSections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.run(&out[i])
		}()
	}
	wg.Wait()
	var got bytes.Buffer
	for i, s := range goldenSections {
		if errs[i] != nil {
			t.Fatalf("%s: %v", s.name, errs[i])
		}
		got.WriteString(out[i].b.String())
	}

	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs (regenerate with -update if intended)\ngot:  %s\nwant: %s",
				path, i+1, g, w)
		}
	}
}
