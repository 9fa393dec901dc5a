// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulation. Select an experiment with -run, or run
// them all; -full raises the statistical budgets toward the paper's
// (10,000 frames per detection point, longer iperf runs) at the cost of
// run time.
//
//	go run ./cmd/experiments -run fig6
//	go run ./cmd/experiments -run all -full
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/iperf"
	"repro/internal/telemetry"
)

var (
	runFlag      = flag.String("run", "all", "experiment: all, fig5, fig6, fig7, fig8, table1, fig10, fig11, fig12, selectivity, resources, reconfig, ablations, reaction, verdict, slo, chaos, incident, fleetobs")
	fullFlag     = flag.Bool("full", false, "paper-scale statistical budgets (slow)")
	parallelFlag = flag.Int("parallel", 0, "experiment worker fan-out (0 = GOMAXPROCS, 1 = sequential)")
	benchJSON    = flag.String("bench-json", "", "write a machine-readable benchmark baseline to this path and exit")
	forceFlag    = flag.Bool("force", false, "allow -bench-json to overwrite an existing baseline")
	benchDiff    = flag.String("bench-diff", "", "compare a fresh measurement against this baseline and exit non-zero on regression")
	tolerantFlag = flag.Bool("tolerant", false, "bench-diff smoke mode: short windows, loose ratio bounds, no figure re-runs")
	ledgerFlag   = flag.String("ledger", "", "with -run verdict: write the per-packet JSONL verdict ledger to this path")
	chaosSeed    = flag.Int64("chaos-seed", 42, "with -run chaos: master seed of the fault-campaign sweep")
	chaosOut     = flag.String("chaos-out", "chaos_report.jsonl", "with -run chaos: JSONL campaign report path (empty to skip)")
	flightOut    = flag.String("flight-out", "incident_dump.json", "with -run incident: flight-recorder dump path (empty to skip)")
	fleetCells   = flag.Int("fleet-cells", 256, "with -run fleetobs: number of concurrent fleet cells")
	fleetSeed    = flag.Int64("fleet-seed", 7, "with -run fleetobs: master seed of the fleet drill")
	fleetOut     = flag.String("fleet-out", "fleet_ledger.jsonl", "with -run fleetobs: JSONL fleet ledger path (empty to skip)")
)

func main() {
	flag.Parse()
	sel := strings.ToLower(*runFlag)
	all := sel == "all"

	experiments.SetParallelism(*parallelFlag)

	frames := 300
	packets := 40
	wimaxFrames := 60
	if *fullFlag {
		frames = 10000
		packets = 400
		wimaxFrames = 500
		experiments.SetFACalibrationScale(25)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *forceFlag, frames, packets); err != nil {
			log.Fatalf("bench-json: %v", err)
		}
		return
	}
	if *benchDiff != "" {
		if err := runBenchDiff(*benchDiff, *tolerantFlag, frames, packets); err != nil {
			log.Fatal(err)
		}
		return
	}

	ran := false
	run := func(name string, f func() error) {
		if !all && sel != name {
			return
		}
		ran = true
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("fig5", func() error { return fig5() })
	run("fig6", func() error { return fig6(frames) })
	run("fig7", func() error { return fig7(frames) })
	run("fig8", func() error { return fig8(frames) })
	run("table1", func() error { return table1() })
	run("fig10", func() error { return fig10and11(packets, true) })
	run("fig11", func() error { return fig10and11(packets, false) })
	run("fig12", func() error { return fig12(wimaxFrames) })
	run("selectivity", func() error { return selectivity(frames / 3) })
	run("resources", func() error { return resources() })
	run("reconfig", func() error { return reconfig() })
	run("ablations", func() error { return ablations() })
	run("reaction", func() error { return reaction(frames / 3) })
	run("verdict", func() error { return runVerdict(frames/6, *ledgerFlag) })
	run("slo", func() error { return runSLO(frames / 3) })
	run("chaos", func() error { return runChaos(*chaosSeed, 12, *chaosOut) })
	run("incident", func() error { return runIncident(*flightOut) })
	run("fleetobs", func() error {
		return runFleetObs(*fleetCells, fleetFrames(frames), *fleetSeed, *fleetOut)
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", sel)
		flag.Usage()
		os.Exit(2)
	}
}

// fleetFrames derives the per-cell engagement count from the statistical
// frame budget: 1/50th of the single-cell budget, clamped so a -full run
// does not multiply it by the whole fleet.
func fleetFrames(frames int) int {
	per := frames / 50
	if per < 3 {
		per = 3
	}
	if per > 24 {
		per = 24
	}
	return per
}

func reaction(frames int) error {
	fmt.Println("measured reaction latency, energy trigger on 802.11g frames")
	fmt.Println("(paper Fig. 5 budget: Ten_det 1.28 µs + Tinit 80 ns = 1.36 µs,")
	fmt.Println(" plus the receive front end's resampler group delay)")
	res, err := experiments.MeasureReactionLatency(experiments.ReactionConfig{
		Frames: frames, Seed: 7,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  frames %d, jam bursts %d\n", res.Frames, res.Triggered)
	fmt.Printf("  reaction p50 %v  p99 %v\n", res.ReactionP50, res.ReactionP99)
	fmt.Printf("  trigger→RF p50 %v (Tinit, paper: ≈80 ns)\n", res.TriggerToRFP50)
	h := res.Snapshot.Histogram(telemetry.HistReaction)
	telemetry.WriteHistogramTable(os.Stdout, h)
	return nil
}

func fig5() error {
	fmt.Println("reactive jamming timelines (paper §3.1, Fig. 5)")
	tl := experiments.Fig5(100 * time.Microsecond)
	fmt.Printf("  Ten_det     %8v   (paper: < 1.28 µs)\n", tl.TenDet)
	fmt.Printf("  Txcorr_det  %8v   (paper: = 2.56 µs)\n", tl.TxcorrDet)
	fmt.Printf("  Tinit       %8v   (paper: ≈ 80 ns)\n", tl.TInit)
	fmt.Printf("  Tresp (en)  %8v   (paper: < 1.36 µs)\n", tl.TRespEnergy)
	fmt.Printf("  Tresp (xc)  %8v   (paper: ≤ 2.64 µs)\n", tl.TRespXCorr)
	fmt.Printf("  Tjam        %8v   (selectable 40 ns – 40 s)\n", tl.TJam)
	return nil
}

func printDetection(res *experiments.DetectionResult, perFrame bool) {
	fmt.Printf("  false alarms: %.3f/s over %.2f s of terminated input\n",
		res.FalseAlarmsPerSec, res.FACalibrationSec)
	for _, p := range res.Points {
		if perFrame {
			fmt.Printf("  SNR %+5.1f dB   Pd %5.3f   detections/frame %.2f\n",
				p.SNRdB, p.Pd, p.DetectionsPerFrame)
			continue
		}
		fmt.Printf("  SNR %+5.1f dB   Pd %5.3f\n", p.SNRdB, p.Pd)
	}
}

func fig6(frames int) error {
	fmt.Println("cross-correlator detection, WiFi long preamble (paper Fig. 6)")
	for _, c := range []struct {
		label string
		kind  experiments.FrameKind
		tight bool
	}{
		{"single long preambles, FA target 0.52/s", experiments.SingleLongPreamble, false},
		{"single long preambles, FA target 0.083/s", experiments.SingleLongPreamble, true},
		{"full WiFi frames,      FA target 0.52/s", experiments.FullFrame, false},
		{"full WiFi frames,      FA target 0.083/s", experiments.FullFrame, true},
	} {
		fmt.Printf(" %s:\n", c.label)
		res, err := experiments.CharacterizeDetection(
			experiments.Fig6Config(c.kind, c.tight, frames))
		if err != nil {
			return err
		}
		printDetection(res, false)
	}
	return nil
}

func fig7(frames int) error {
	fmt.Println("cross-correlator detection, WiFi short preamble, full frames")
	fmt.Println("(paper Fig. 7: >90% at -3 dB, >99% above 3 dB, FA 0.059/s)")
	res, err := experiments.CharacterizeDetection(experiments.Fig7Config(frames))
	if err != nil {
		return err
	}
	printDetection(res, false)
	return nil
}

func fig8(frames int) error {
	fmt.Println("energy differentiator detection, full WiFi frames, 10 dB threshold")
	fmt.Println("(paper Fig. 8: none below -3 dB, excessive detections in the")
	fmt.Println(" transition band, exactly one per frame at high SNR)")
	res, err := experiments.CharacterizeDetection(experiments.Fig8Config(frames))
	if err != nil {
		return err
	}
	printDetection(res, true)
	return nil
}

func table1() error {
	fmt.Println("5-port network insertion losses (paper Table 1, dB)")
	tab := experiments.Table1()
	fmt.Printf("  in\\out %8d %8d %8d %8d %8d\n", 1, 2, 3, 4, 5)
	for i, row := range tab {
		fmt.Printf("  %6d", i+1)
		for _, v := range row {
			if math.IsNaN(v) {
				fmt.Printf(" %8s", "-")
				continue
			}
			fmt.Printf(" %8.1f", v)
		}
		fmt.Println()
	}
	return nil
}

func fig10and11(packets int, bandwidth bool) error {
	if bandwidth {
		fmt.Println("UDP bandwidth vs measured SIR at the AP (paper Fig. 10)")
	} else {
		fmt.Println("packet reception ratio vs measured SIR at the AP (paper Fig. 11)")
	}
	base, err := experiments.BaselineBandwidthKbps(packets, 1)
	if err != nil {
		return err
	}
	fmt.Printf("  jammer off: %.1f Mbps, PRR 1.00 (paper: ~29 Mbps)\n", base/1000)
	for _, ty := range []struct {
		name   string
		mode   iperf.JamMode
		uptime time.Duration
	}{
		{"continuous", iperf.JamContinuous, 0},
		{"reactive 0.1ms", iperf.JamReactive, 100 * time.Microsecond},
		{"reactive 0.01ms", iperf.JamReactive, 10 * time.Microsecond},
	} {
		cfg := experiments.DefaultJamSweep(ty.mode, ty.uptime)
		cfg.Packets = packets
		pts, err := experiments.RunJamSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %s:\n", ty.name)
		for _, p := range pts {
			if bandwidth {
				fmt.Printf("    SIR %6.1f dB   %8.0f Kbps\n",
					p.Result.SIRdB, p.Result.BandwidthKbps)
				continue
			}
			fmt.Printf("    SIR %6.1f dB   PRR %.2f\n", p.Result.SIRdB, p.Result.PRR)
		}
	}
	return nil
}

func fig12(frames int) error {
	fmt.Println("WiMAX downlink reactive jamming (paper §5, Fig. 12)")
	res, err := experiments.Fig12WiMAX(frames, 5)
	if err != nil {
		return err
	}
	fmt.Printf("  frames                  %d\n", res.Frames)
	fmt.Printf("  xcorr-only Pd           %.2f   (paper: ~1/3)\n", res.XCorrOnlyPd)
	fmt.Printf("  xcorr+energy Pd         %.2f   (paper: 1.00)\n", res.CombinedPd)
	fmt.Printf("  jam bursts              %d\n", res.JamBursts)
	fmt.Printf("  1:1 frame/burst         %v\n", res.OneToOne)
	return nil
}

func selectivity(frames int) error {
	fmt.Println("protocol selectivity: per-frame trigger probability of each")
	fmt.Println("template against each transmitted standard (§2.3: react to only")
	fmt.Println("packets of a single wireless standard; energy detector fires on all)")
	res, err := experiments.Selectivity(frames, 15, 9)
	if err != nil {
		return err
	}
	fmt.Printf("  %14s", "template\\signal")
	for _, s := range experiments.AllStandards {
		fmt.Printf(" %9v", s)
	}
	fmt.Println()
	for ti, tplStd := range experiments.AllStandards {
		fmt.Printf("  %14v", tplStd)
		for si := range experiments.AllStandards {
			fmt.Printf(" %9.2f", res.Pd[ti][si])
		}
		fmt.Println()
	}
	fmt.Printf("  %14s", "energy-only")
	for si := range experiments.AllStandards {
		fmt.Printf(" %9.2f", res.EnergyPd[si])
	}
	fmt.Println()
	return nil
}

func resources() error {
	fmt.Println("FPGA resource utilization (papers Figs. 3/4 insets)")
	r := experiments.Resources()
	fmt.Printf("  cross-correlator  %s\n", r.XCorr)
	fmt.Printf("  energy diff       %s\n", r.Energy)
	fmt.Printf("  jam controller    %s (estimated)\n", r.Jammer)
	fmt.Printf("  total             %s\n", r.Total)
	return nil
}

func reconfig() error {
	fmt.Println("run-time reconfigurability (paper §4.3)")
	p, d, err := experiments.ReconfigLatency()
	if err != nil {
		return err
	}
	fmt.Printf("  jammer personality switch  %v (4 register writes)\n", p)
	fmt.Printf("  full detector reprogram    %v (18 register writes)\n", d)
	fmt.Println("  (no FPGA reprogramming in either case)")
	return nil
}

func ablations() error {
	fmt.Println("ablation: correlator variants (single long preamble)")
	rows, err := experiments.AblationCorrelators([]float64{-6, -2, 2, 6}, 200, 3)
	if err != nil {
		return err
	}
	fmt.Printf("  %8s %10s %10s %10s %12s\n", "SNR(dB)", "hardware", "float64", "float128t", "raw-rate")
	for _, r := range rows {
		fmt.Printf("  %8.1f %10.2f %10.2f %10.2f %12.2f\n",
			r.SNRdB, r.HardwarePd, r.FullPrecisionPd, r.FullPrecision128Pd, r.RawRateTemplatePd)
	}

	fmt.Println("ablation: energy moving-sum window")
	ew, err := experiments.AblationEnergyWindow([]int{8, 16, 32, 64, 128}, 200, 4)
	if err != nil {
		return err
	}
	for _, r := range ew {
		fmt.Printf("  N=%-4d latency %5.2f µs   Pd(12 dB burst) %.2f\n",
			r.Window, r.LatencyUS, r.Pd)
	}

	fmt.Println("ablation: front-end impairments (full frames at -3 dB SNR)")
	ir, err := experiments.AblationImpairments(200, -3, 5)
	if err != nil {
		return err
	}
	for _, r := range ir {
		fmt.Printf("  %-16s Pd %.2f\n", r.Label, r.Pd)
	}

	fmt.Println("ablation: hard vs soft-decision victim receiver (burst at ~8 dB SIR)")
	sd, err := experiments.AblationSoftDecision([]int{0, 2, 4, 8, 16}, 60, 6)
	if err != nil {
		return err
	}
	for _, r := range sd {
		fmt.Printf("  burst %2d symbols   hard FER %.2f   soft FER %.2f\n",
			r.BurstSymbols, r.HardFER, r.SoftFER)
	}

	fmt.Println("ablation: jamming waveform presets (reactive, 0.1 ms, 5 dB pad)")
	wf, err := experiments.AblationWaveforms(12, 5, 2)
	if err != nil {
		return err
	}
	for _, r := range wf {
		fmt.Printf("  %-12v PRR %.2f at SIR %.1f dB\n", r.Waveform, r.PRR, r.SIRdB)
	}
	return nil
}
