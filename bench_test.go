// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each bench
// regenerates its experiment's data and reports the headline numbers as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints paper-comparable figures.
package reactivejam

import (
	"math"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/wifi"
)

// benchFrames / benchPackets trade statistical tightness for run time;
// cmd/experiments -full runs the paper-scale budgets.
const (
	benchFrames  = 200
	benchPackets = 25
)

func BenchmarkFig5Timelines(b *testing.B) {
	var last time.Duration
	for i := 0; i < b.N; i++ {
		t := experiments.Fig5(100 * time.Microsecond)
		last = t.TRespXCorr
	}
	b.ReportMetric(float64(last.Nanoseconds()), "Tresp-xcorr-ns")
	t := experiments.Fig5(100 * time.Microsecond)
	b.ReportMetric(float64(t.TRespEnergy.Nanoseconds()), "Tresp-energy-ns")
	b.ReportMetric(float64(t.TInit.Nanoseconds()), "Tinit-ns")
}

// reportPd runs a detection characterization once per bench invocation and
// reports Pd at the low/mid/high SNR points.
func reportPd(b *testing.B, cfg experiments.DetectionConfig) {
	b.Helper()
	var res *experiments.DetectionResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.CharacterizeDetection(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, p := range res.Points {
		switch p.SNRdB {
		case -4, 2, 10:
			b.ReportMetric(p.Pd, "Pd@"+strconv.Itoa(int(p.SNRdB))+"dB")
		}
	}
	b.ReportMetric(res.FalseAlarmsPerSec, "FA/s")
}

func BenchmarkFig6LongPreambleDetection(b *testing.B) {
	b.Run("single-loose", func(b *testing.B) {
		reportPd(b, experiments.Fig6Config(experiments.SingleLongPreamble, false, benchFrames))
	})
	b.Run("single-tight", func(b *testing.B) {
		reportPd(b, experiments.Fig6Config(experiments.SingleLongPreamble, true, benchFrames))
	})
	b.Run("full-loose", func(b *testing.B) {
		reportPd(b, experiments.Fig6Config(experiments.FullFrame, false, benchFrames))
	})
}

func BenchmarkFig7ShortPreambleDetection(b *testing.B) {
	reportPd(b, experiments.Fig7Config(benchFrames))
}

func BenchmarkFig8EnergyDetection(b *testing.B) {
	cfg := experiments.Fig8Config(benchFrames)
	var res *experiments.DetectionResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.CharacterizeDetection(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, p := range res.Points {
		if p.SNRdB == 14 {
			b.ReportMetric(p.Pd, "Pd@14dB")
			b.ReportMetric(p.DetectionsPerFrame, "det/frame@14dB")
		}
	}
}

func BenchmarkTable1InsertionLoss(b *testing.B) {
	var tab [5][5]float64
	for i := 0; i < b.N; i++ {
		tab = experiments.Table1()
	}
	b.ReportMetric(tab[0][1], "loss-1to2-dB")
	b.ReportMetric(tab[3][0], "loss-4to1-dB")
}

// jamSweepBench runs one Fig. 10/11 curve and reports the kill SIR (the
// highest measured SIR with zero delivery) and bandwidth at the weakest
// jamming point.
func jamSweepBench(b *testing.B, mode iperf.JamMode, uptime time.Duration) {
	b.Helper()
	cfg := experiments.DefaultJamSweep(mode, uptime)
	cfg.Packets = benchPackets
	var pts []experiments.JamSweepPoint
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunJamSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	kill := math.Inf(-1)
	for _, p := range pts {
		if p.Result.PRR == 0 && p.Result.SIRdB > kill {
			kill = p.Result.SIRdB
		}
	}
	b.ReportMetric(kill, "kill-SIR-dB")
	last := pts[len(pts)-1].Result
	b.ReportMetric(last.BandwidthKbps/1000, "BW-weakest-Mbps")
	b.ReportMetric(last.JamAirtimeFrac, "jam-airtime")
}

func BenchmarkFig10Bandwidth(b *testing.B) {
	b.Run("continuous", func(b *testing.B) { jamSweepBench(b, iperf.JamContinuous, 0) })
	b.Run("reactive-0.1ms", func(b *testing.B) {
		jamSweepBench(b, iperf.JamReactive, 100*time.Microsecond)
	})
	b.Run("reactive-0.01ms", func(b *testing.B) {
		jamSweepBench(b, iperf.JamReactive, 10*time.Microsecond)
	})
}

func BenchmarkFig11PRR(b *testing.B) {
	// The PRR series comes from the same sweep machinery; report PRR at a
	// strong and a weak point for the 0.1 ms jammer.
	cfg := experiments.DefaultJamSweep(iperf.JamReactive, 100*time.Microsecond)
	cfg.Packets = benchPackets
	cfg.Attenuations = []float64{10, 45}
	var pts []experiments.JamSweepPoint
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunJamSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	b.ReportMetric(pts[0].Result.PRR, "PRR-strong")
	b.ReportMetric(pts[1].Result.PRR, "PRR-weak")
}

func BenchmarkFig12WiMAX(b *testing.B) {
	var res *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12WiMAX(30, 5)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.XCorrOnlyPd, "xcorr-only-Pd")
	b.ReportMetric(res.CombinedPd, "combined-Pd")
	b.ReportMetric(float64(res.JamBursts)/float64(res.Frames), "bursts/frame")
}

func BenchmarkResourceUtilization(b *testing.B) {
	var r experiments.ResourceReport
	for i := 0; i < b.N; i++ {
		r = experiments.Resources()
	}
	if r.XCorr == "" {
		b.Fatal("empty report")
	}
	c := New()
	_ = c
}

func BenchmarkReconfigLatency(b *testing.B) {
	var p, d time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		p, d, err = experiments.ReconfigLatency()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Nanoseconds()), "personality-ns")
	b.ReportMetric(float64(d.Nanoseconds()), "detector-ns")
}

func BenchmarkAblationSignBitCorrelator(b *testing.B) {
	var rows []experiments.CorrelatorComparison
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCorrelators([]float64{-4}, 100, 3)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[0].HardwarePd, "hw-Pd@-4dB")
	b.ReportMetric(rows[0].FullPrecisionPd, "float-Pd@-4dB")
	b.ReportMetric(rows[0].RawRateTemplatePd, "rawrate-Pd@-4dB")
}

func BenchmarkAblationCorrelatorLength(b *testing.B) {
	var rows []experiments.CorrelatorComparison
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCorrelators([]float64{-6}, 100, 3)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[0].FullPrecisionPd, "64tap-Pd@-6dB")
	b.ReportMetric(rows[0].FullPrecision128Pd, "128tap-Pd@-6dB")
}

func BenchmarkAblationEnergyWindow(b *testing.B) {
	var rows []experiments.EnergyWindowPoint
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationEnergyWindow([]int{8, 32, 128}, 100, 4)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[1].LatencyUS, "N32-latency-us")
	b.ReportMetric(rows[2].Pd, "N128-Pd")
}

func BenchmarkAblationDetectorFusion(b *testing.B) {
	var res *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12WiMAX(20, 5)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.CombinedPd-res.XCorrOnlyPd, "fusion-gain")
}

func BenchmarkAblationWaveforms(b *testing.B) {
	var rows []experiments.WaveformAblationRow
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationWaveforms(8, 5, 2)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		b.ReportMetric(r.PRR, "PRR-"+r.Waveform.String())
	}
}

// BenchmarkCorePerSample measures the raw datapath throughput of the DSP
// core (engineering metric, not a paper figure).
func BenchmarkCorePerSample(b *testing.B) {
	f := New()
	if err := f.DetectWiFiShortPreamble(0.1); err != nil {
		b.Fatal(err)
	}
	buf := make([]complex128, 4096)
	for i := range buf {
		buf[i] = complex(float64(i%7)*0.01, 0)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		out, err := f.Process(buf)
		if err != nil {
			b.Fatal(err)
		}
		n += len(out)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// BenchmarkCoreDatapath isolates the two core entry points behind the radio
// front end: the legacy per-sample call and the block fast path that hoists
// quantization, recorder dispatch and counter updates out of the loop.
func BenchmarkCoreDatapath(b *testing.B) {
	build := func(b *testing.B) *core.Core {
		r := radio.New()
		h := host.New(r.Core())
		if _, err := h.ProgramCorrelator(host.WiFiShortTemplate(), 0.1); err != nil {
			b.Fatal(err)
		}
		if _, err := h.ProgramEnergy(10, 0); err != nil {
			b.Fatal(err)
		}
		r.Start()
		return r.Core()
	}
	buf := make([]complex128, 4096)
	for i := range buf {
		buf[i] = complex(float64(i%7)*0.01, 0)
	}
	b.Run("per-sample", func(b *testing.B) {
		c := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, s := range buf {
				c.ProcessSample(s)
			}
			n += len(buf)
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
	b.Run("block", func(b *testing.B) {
		c := build(b)
		tx := make([]complex128, len(buf))
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			c.ProcessBlock(buf, tx)
			n += len(buf)
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
	// block-parallel models the multi-channel deployment: GOMAXPROCS
	// independent cores each streaming blocks at once. Aggregate Msps should
	// scale near-linearly since the block path allocates nothing in steady
	// state and shares no mutable data between cores.
	b.Run("block-parallel", func(b *testing.B) {
		var n int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			c := build(b)
			tx := make([]complex128, len(buf))
			local := 0
			for pb.Next() {
				c.ProcessBlock(buf, tx)
				local += len(buf)
			}
			atomic.AddInt64(&n, int64(local))
		})
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
}

// newTelemetryBenchCore builds an energy-armed, jamming core plus an input
// buffer whose quiet→burst→quiet shape exercises detections, trigger fires
// and full jam-burst lifecycles.
func newTelemetryBenchCore(tb testing.TB) (*core.Core, []complex128) {
	tb.Helper()
	r := radio.New()
	h := host.New(r.Core())
	if err := h.Arm(host.Detector{EnergyThresholdDB: host.EnergyRiseDB}); err != nil {
		tb.Fatal(err)
	}
	if _, err := h.ProgramJammer(host.Personality{
		Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	r.Start()
	buf := make([]complex128, 4096)
	for i := range buf {
		switch {
		case i >= 1024 && i < 1536: // burst
			buf[i] = complex(0.3, 0.1)
		default: // noise floor
			buf[i] = complex(1e-4*float64(i%5-2), 0)
		}
	}
	return r.Core(), buf
}

// BenchmarkTelemetryRecorder compares the per-sample datapath cost with no
// recorder against a live recorder (journal + histograms + counters
// attached).
func BenchmarkTelemetryRecorder(b *testing.B) {
	for _, mode := range []string{"nil", "live"} {
		b.Run(mode, func(b *testing.B) {
			c, buf := newTelemetryBenchCore(b)
			if mode == "live" {
				c.SetRecorder(telemetry.NewLive(1 << 12))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ProcessSample(buf[i%len(buf)])
			}
		})
	}
}

// TestRecorderZeroAllocs pins the tentpole guarantee: the instrumented
// sample loop performs zero heap allocations per sample — with no recorder
// (the nil default) AND with a live recorder attached (ring journal and
// histograms are preallocated).
func TestRecorderZeroAllocs(t *testing.T) {
	for _, mode := range []string{"nil", "live"} {
		c, buf := newTelemetryBenchCore(t)
		if mode == "live" {
			c.SetRecorder(telemetry.NewLive(1 << 12))
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, s := range buf {
				c.ProcessSample(s)
			}
		})
		if allocs != 0 {
			t.Errorf("%s recorder: %.1f allocs per 4096-sample run, want 0",
				mode, allocs)
		}
	}
}

// BenchmarkProtocolSelectivity reports the §2.3 protocol-awareness matrix:
// diagonal detection minus worst off-diagonal cross-trigger.
func BenchmarkProtocolSelectivity(b *testing.B) {
	var res *experiments.SelectivityResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Selectivity(30, 15, 9)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	minDiag, maxCross := 1.0, 0.0
	for i := range experiments.AllStandards {
		if res.Pd[i][i] < minDiag {
			minDiag = res.Pd[i][i]
		}
		for j := range experiments.AllStandards {
			if i != j && res.Pd[i][j] > maxCross {
				maxCross = res.Pd[i][j]
			}
		}
	}
	b.ReportMetric(minDiag, "min-diagonal-Pd")
	b.ReportMetric(maxCross, "max-cross-Pd")
}

// BenchmarkAblationImpairments reports how hardware front-end realism
// shifts the Fig. 6 operating point.
func BenchmarkAblationImpairments(b *testing.B) {
	var rows []experiments.ImpairmentRow
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationImpairments(100, -3, 5)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		b.ReportMetric(r.Pd, "Pd-"+r.Label)
	}
}

// BenchmarkCountermeasureIJam reports the iJam secrecy window: legit and
// eavesdropper recovery at the calibrated 0 dB jam-to-signal point.
func BenchmarkCountermeasureIJam(b *testing.B) {
	var pts []defense.IJamPoint
	for i := 0; i < b.N; i++ {
		p, err := defense.IJamStudy([]float64{0}, 6,
			defense.IJamConfig{Rate: wifi.Rate54, NoiseSNRdB: 30, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	b.ReportMetric(pts[0].LegitRate, "legit-rate")
	b.ReportMetric(pts[0].EveRate, "eve-rate")
	b.ReportMetric(pts[0].EvePickErrorRate, "eve-pick-err")
}

// BenchmarkAblationSoftDecision reports hard vs soft victim FER under a
// 4-symbol jam burst.
func BenchmarkAblationSoftDecision(b *testing.B) {
	var rows []experiments.SoftDecisionRow
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSoftDecision([]int{4}, 40, 6)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[0].HardFER, "hard-FER")
	b.ReportMetric(rows[0].SoftFER, "soft-FER")
}
