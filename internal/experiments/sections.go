package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/iperf"
)

// Budget is the statistical budget of a figure run: frames per detection
// SNR point (Figs. 6–8, a third of it per selectivity cell), packets per
// iperf point (Figs. 10/11) and WiMAX frames (Fig. 12).
type Budget struct{ Frames, Packets, WiMAXFrames int }

// DefaultBudget is what `go run ./cmd/experiments` prints and what
// testdata/figures.golden pins; FullBudget is its `-full`, toward the
// paper's statistics.
var (
	DefaultBudget = Budget{Frames: 300, Packets: 40, WiMAXFrames: 60}
	FullBudget    = Budget{Frames: 10000, Packets: 400, WiMAXFrames: 500}
)

// Records collects one name=value line per seeded value. Values print with
// %v, which for a float64 is the shortest decimal that reads back to the
// same bits, so a comparison of the lines is a comparison of the values.
type Records struct{ b strings.Builder }

// put writes one line: the name is format applied to all but the last
// argument, the value is the last argument.
func (r *Records) put(format string, args ...any) {
	fmt.Fprintf(&r.b, format+"=%v\n", args...)
}

// Figure is one section of the paper's evaluation: Run writes its seeded
// values as name=value records at a given budget.
type Figure struct {
	Name    string
	Caption string // what the section shows and the paper's numbers for it
	Run     func(*Records, Budget) error
}

// detectionRecords characterizes cfgs together, so that configurations
// sharing an input share its streams, and writes each one's records under
// its name.
func detectionRecords(r *Records, names []string, cfgs ...DetectionConfig) error {
	res, err := measure(detectionStreams(cfgs))
	if err != nil {
		return err
	}
	for i, name := range names {
		r.put("%s_fa_per_sec", name, res[i].FalseAlarmsPerSec)
		for _, p := range res[i].Points {
			r.put("%s_pd_%+gdB", name, p.SNRdB, p.Pd)
			r.put("%s_detections_per_frame_%+gdB", name, p.SNRdB, p.DetectionsPerFrame)
		}
	}
	return nil
}

// Figures lists every seeded figure of the evaluation in the order of
// testdata/figures.golden.
func Figures() []Figure {
	return []Figure{
		{"fig5", "reactive jamming timelines (paper §3.1, Fig. 5: Ten_det < 1.28 µs, Txcorr_det\n" +
			"2.56 µs, Tinit ≈ 80 ns, Tresp < 1.36 / ≤ 2.64 µs, Tjam 40 ns – 40 s)",
			func(r *Records, _ Budget) error {
				tl := Fig5(100 * time.Microsecond)
				r.put("fig5_ten_det", tl.TenDet)
				r.put("fig5_txcorr_det", tl.TxcorrDet)
				r.put("fig5_tinit", tl.TInit)
				r.put("fig5_tresp_energy", tl.TRespEnergy)
				r.put("fig5_tresp_xcorr", tl.TRespXCorr)
				r.put("fig5_tjam", tl.TJam)
				return nil
			}},
		{"fig6", "cross-correlator detection, WiFi long preamble (paper Fig. 6): single long\n" +
			"preambles and full frames, FA targets 0.52/s (loose) and 0.083/s (tight)",
			func(r *Records, b Budget) error {
				// Loose and tight share each frame kind's streams, and all
				// four share the false-alarm stream.
				return detectionRecords(r,
					[]string{"fig6_single_loose", "fig6_single_tight", "fig6_full_loose", "fig6_full_tight"},
					Fig6Config(SingleLongPreamble, false, b.Frames), Fig6Config(SingleLongPreamble, true, b.Frames),
					Fig6Config(FullFrame, false, b.Frames), Fig6Config(FullFrame, true, b.Frames))
			}},
		{"fig7", "cross-correlator detection, WiFi short preamble, full frames\n" +
			"(paper Fig. 7: >90% at -3 dB, >99% above 3 dB, FA 0.059/s)",
			func(r *Records, b Budget) error { return detectionRecords(r, []string{"fig7"}, Fig7Config(b.Frames)) }},
		{"fig8", "energy differentiator detection, full WiFi frames, 10 dB threshold\n" +
			"(paper Fig. 8: none below -3 dB, excessive detections in the\n" +
			"transition band, exactly one per frame at high SNR)",
			func(r *Records, b Budget) error { return detectionRecords(r, []string{"fig8"}, Fig8Config(b.Frames)) }},
		{"table1", "5-port network insertion losses (paper Table 1, dB; NaN: not measured)",
			func(r *Records, _ Budget) error {
				for i, row := range Table1() {
					for j, v := range row {
						r.put("table1_in%d_out%d", i+1, j+1, v)
					}
				}
				return nil
			}},
		{"fig10", "UDP bandwidth and packet reception ratio vs measured SIR at the AP\n" +
			"(paper Figs. 10 and 11; jammer off ~29 Mbps)",
			func(r *Records, b Budget) error {
				base, err := BaselineBandwidthKbps(b.Packets, 1)
				if err != nil {
					return err
				}
				r.put("fig10_jammer_off_kbps", base)
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
					cfg.Packets = b.Packets
					pts, err := RunJamSweep(cfg)
					if err != nil {
						return err
					}
					for _, p := range pts {
						r.put("fig10_%s_att%gdB_sir_db", ty.name, p.VariableAttDB, p.Result.SIRdB)
						r.put("fig10_%s_att%gdB_kbps", ty.name, p.VariableAttDB, p.Result.BandwidthKbps)
						r.put("fig10_%s_att%gdB_prr", ty.name, p.VariableAttDB, p.Result.PRR)
					}
				}
				return nil
			}},
		{"fig12", "WiMAX downlink reactive jamming (paper §5, Fig. 12: xcorr-only Pd\n" +
			"~1/3, xcorr+energy Pd 1.00, one jam burst per frame)",
			func(r *Records, b Budget) error {
				res, err := Fig12WiMAX(b.WiMAXFrames, 5)
				if err != nil {
					return err
				}
				r.put("fig12_frames", res.Frames)
				r.put("fig12_xcorr_only_pd", res.XCorrOnlyPd)
				r.put("fig12_combined_pd", res.CombinedPd)
				r.put("fig12_jam_bursts", res.JamBursts)
				r.put("fig12_one_to_one", res.OneToOne)
				return nil
			}},
		{"selectivity", "protocol selectivity: per-frame trigger probability of each\n" +
			"template against each transmitted standard (§2.3: react to only\n" +
			"packets of a single wireless standard; energy detector fires on all)",
			func(r *Records, b Budget) error {
				res, err := Selectivity(b.Frames/3, 15, 9)
				if err != nil {
					return err
				}
				for ti, tpl := range AllStandards {
					for si, sig := range AllStandards {
						r.put("selectivity_pd_%v_on_%v", tpl, sig, res.Pd[ti][si])
					}
				}
				for si, sig := range AllStandards {
					r.put("selectivity_energy_pd_%v", sig, res.EnergyPd[si])
				}
				return nil
			}},
		{"ablations", "ablations: correlator variants (single long preamble), energy window,\n" +
			"impairments (full frames, -3 dB SNR), hard vs soft victim receiver (burst at\n" +
			"~8 dB SIR), jamming waveforms (reactive, 0.1 ms, 5 dB pad)",
			func(r *Records, _ Budget) error {
				cr, err := AblationCorrelators([]float64{-6, -2, 2, 6}, 200, 3)
				if err != nil {
					return err
				}
				for _, c := range cr {
					r.put("ablation_correlator_%+gdB_hardware_pd", c.SNRdB, c.HardwarePd)
					r.put("ablation_correlator_%+gdB_float64_pd", c.SNRdB, c.FullPrecisionPd)
					r.put("ablation_correlator_%+gdB_float128t_pd", c.SNRdB, c.FullPrecision128Pd)
					r.put("ablation_correlator_%+gdB_raw_rate_pd", c.SNRdB, c.RawRateTemplatePd)
					r.put("ablation_correlator_%+gdB_hardware_threshold", c.SNRdB, c.HardwareThreshold)
					r.put("ablation_correlator_%+gdB_soft_threshold_factor", c.SNRdB, c.SoftThresholdFactor)
				}
				ew, err := AblationEnergyWindow([]int{8, 16, 32, 64, 128}, 200, 4)
				if err != nil {
					return err
				}
				for _, e := range ew {
					r.put("ablation_energy_window_%d_latency_us", e.Window, e.LatencyUS)
					r.put("ablation_energy_window_%d_pd", e.Window, e.Pd)
				}
				ir, err := AblationImpairments(200, -3, 5)
				if err != nil {
					return err
				}
				for _, i := range ir {
					r.put("ablation_impairments_%s_pd", strings.ReplaceAll(i.Label, " ", "_"), i.Pd)
				}
				sd, err := AblationSoftDecision([]int{0, 2, 4, 8, 16}, 60, 6)
				if err != nil {
					return err
				}
				for _, s := range sd {
					r.put("ablation_soft_decision_burst%d_hard_fer", s.BurstSymbols, s.HardFER)
					r.put("ablation_soft_decision_burst%d_soft_fer", s.BurstSymbols, s.SoftFER)
				}
				wf, err := AblationWaveforms(12, 5, 2)
				if err != nil {
					return err
				}
				for _, w := range wf {
					r.put("ablation_waveform_%v_prr", w.Waveform, w.PRR)
					r.put("ablation_waveform_%v_sir_db", w.Waveform, w.SIRdB)
				}
				return nil
			}},
	}
}

// RunFigures runs figs at budget b and hands each one's records and wall
// time to emit in list order, as soon as it and every figure before it have
// finished. Each figure writes its own records, so they run concurrently:
// one after the other they would leave a core idle through Fig. 12, which
// is one stream on one goroutine. At Parallelism 1
// they run one after the other. The first error, from a figure or from
// emit, stops the emitting and returns once every figure has finished.
func RunFigures(figs []Figure, b Budget, emit func(f Figure, rec string, wall time.Duration) error) error {
	recs := make([]Records, len(figs))
	walls := make([]time.Duration, len(figs))
	errs := make([]error, len(figs))
	done := make([]chan struct{}, len(figs))
	sequential := Parallelism() == 1
	for i, f := range figs {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			if sequential && i > 0 {
				<-done[i-1]
			}
			start := time.Now()
			errs[i] = f.Run(&recs[i], b)
			walls[i] = time.Since(start)
		}()
	}
	var err error
	for i, f := range figs {
		<-done[i]
		if err != nil {
			continue
		}
		if err = errs[i]; err != nil {
			err = fmt.Errorf("%s: %w", f.Name, err)
			continue
		}
		err = emit(f, recs[i].b.String(), walls[i])
	}
	return err
}
