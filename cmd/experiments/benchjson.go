package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/telemetry/profile"
)

// BenchReport is the machine-readable benchmark baseline written by
// -bench-json (the `make bench-json` target). It records the headline
// detection figures and the measurements the bench-diff gate table reads,
// so a later commit can prove its figures unchanged and its same-run ratios
// in bounds. Throughput across commits is judged by the bench/ module.
type BenchReport struct {
	Date        string `json:"date"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu,omitempty"`
	Parallelism int    `json:"parallelism"`
	// Frames and Packets record the statistical budgets the figures were
	// measured at, so bench-diff can re-run with identical budgets (older
	// baselines without them fall back to the current defaults).
	Frames  int `json:"frames,omitempty"`
	Packets int `json:"packets,omitempty"`

	// ThroughputMsps reports the sample-rate of each datapath entry point in
	// millions of samples per second. Only the same-run ratios are gated:
	// absolute rates depend on the host that measured them.
	ThroughputMsps struct {
		CorePerSample float64 `json:"core_per_sample"`
		CoreBlock     float64 `json:"core_block"`
		// BlockOverScalar is CoreBlock / CorePerSample: the fused block
		// datapath must never lose to the scalar path.
		BlockOverScalar float64 `json:"block_over_scalar,omitempty"`
	} `json:"throughput_msps"`

	// TelemetryOverheadPct is the block-datapath throughput cost of running
	// with the live recorder attached and the fleet plane snapshotting in
	// the background, relative to a bare core: the median over
	// overheadPairs interleaved bare/instrumented window pairs. It is
	// signed: a negative value is measurement noise (the instrumented run
	// came out faster).
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`

	// Figures carries the key detection-probability results so a change
	// that alters behaviour is caught by the same diff.
	Figures map[string]float64 `json:"figures"`

	// Profile summarizes the process's memory/GC state after the benchmark
	// runs (older baselines without it still parse and diff cleanly).
	Profile *profile.Summary `json:"profile,omitempty"`
}

// overheadPairs is how many interleaved bare/instrumented windows the
// telemetry overhead is the median of: one pair of windows is at the mercy
// of whatever else the host runs at that moment.
const overheadPairs = 5

// measureThroughput runs process (which consumes blockLen samples per call)
// for roughly the given duration and returns millions of samples per second.
func measureThroughput(blockLen int, minDur time.Duration, process func()) float64 {
	// Warm up once so one-time setup (scratch growth, warmup masks) is
	// excluded from the measured window.
	process()
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		process()
		n += blockLen
	}
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// benchInput builds the 4096-sample buffer BenchmarkCorePerSample uses, so
// the JSON figures and the Go benchmark measure the same workload.
func benchInput() []complex128 {
	buf := make([]complex128, 4096)
	for i := range buf {
		buf[i] = complex(float64(i%7)*0.01, 0)
	}
	return buf
}

// benchCore assembles the short-preamble detection core behind a radio front
// end, matching the benchmark configuration.
func benchCore() (*core.Core, error) {
	r := radio.New()
	h := host.New(r.Core())
	if _, err := h.ProgramCorrelator(host.WiFiShortTemplate(), 0.1); err != nil {
		return nil, err
	}
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		return nil, err
	}
	r.Start()
	return r.Core(), nil
}

func throughputSection(rep *BenchReport, window time.Duration) error {
	buf := benchInput()

	c, err := benchCore()
	if err != nil {
		return err
	}
	rep.ThroughputMsps.CorePerSample = measureThroughput(len(buf), window, func() {
		for _, s := range buf {
			c.ProcessSample(s)
		}
	})

	c, err = benchCore()
	if err != nil {
		return err
	}
	tx := make([]complex128, len(buf))
	rep.ThroughputMsps.CoreBlock = measureThroughput(len(buf), window, func() {
		c.ProcessBlock(buf, tx)
	})

	if rep.ThroughputMsps.CorePerSample > 0 {
		rep.ThroughputMsps.BlockOverScalar =
			rep.ThroughputMsps.CoreBlock / rep.ThroughputMsps.CorePerSample
	}
	return nil
}

// overheadSection measures the telemetry overhead of the instrumented block
// datapath against a bare core: the same block workload on a bare core and
// on one with the live recorder attached, bound to a fleet cell, with a
// stream broadcaster snapshotting the fleet concurrently, as jamlab's
// /stream does — the full observability tax.
//
// Each of the overheadPairs windows alternates the two cores block by block
// and compares their summed times, so load from other tenants of the host
// lands on both sides alike; the median of the pairs discards a window that
// a preemption hit on one side only. The broadcaster runs through the bare
// blocks too: on one core its (small) cost is split between the sides.
func overheadSection(rep *BenchReport, window time.Duration) error {
	buf := benchInput()
	tx := make([]complex128, len(buf))
	bare, err := benchCore()
	if err != nil {
		return err
	}
	inst, err := benchCore()
	if err != nil {
		return err
	}
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	inst.SetRecorder(live)
	agg := fleet.New(fleet.Options{})
	agg.Cell("bench").BindLive(live)
	bcast := telemetry.NewBroadcaster(50*time.Millisecond, agg.RollupSource())

	bare.ProcessBlock(buf, tx)
	inst.ProcessBlock(buf, tx)
	bcast.Start()
	pcts := make([]float64, overheadPairs)
	for i := range pcts {
		var bareT, instT time.Duration
		for start := time.Now(); time.Since(start) < window; {
			t0 := time.Now()
			bare.ProcessBlock(buf, tx)
			t1 := time.Now()
			inst.ProcessBlock(buf, tx)
			bareT += t1.Sub(t0)
			instT += time.Since(t1)
		}
		pcts[i] = overheadPct(1/bareT.Seconds(), 1/instT.Seconds())
	}
	bcast.Stop()
	sort.Float64s(pcts)
	rep.TelemetryOverheadPct = pcts[len(pcts)/2]
	return nil
}

// overheadPct is the throughput an instrumented run loses against a bare
// one, in percent of the bare rate. It is signed: a negative value means the
// instrumented run came out faster, which is measurement noise and is
// reported as such. A zero bare rate has nothing to compare against and
// yields 0.
func overheadPct(bare, instrumented float64) float64 {
	if bare <= 0 {
		return 0
	}
	return (1 - instrumented/bare) * 100
}

// experimentSection re-runs the seeded experiments behind the headline
// figures and records them in rep.Figures.
func experimentSection(rep *BenchReport, frames, packets int) error {
	for _, fig := range []struct {
		name string
		cfg  experiments.DetectionConfig
		snrs []float64
	}{
		{"fig6", experiments.Fig6Config(experiments.SingleLongPreamble, false, frames), []float64{-4, 2, 10}},
		{"fig7", experiments.Fig7Config(frames), []float64{-4, 2, 10}},
		{"fig8", experiments.Fig8Config(frames), []float64{14}},
	} {
		res, err := experiments.CharacterizeDetection(fig.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		for _, p := range res.Points {
			for _, snr := range fig.snrs {
				if p.SNRdB == snr {
					rep.Figures[fmt.Sprintf("%s_pd_%+gdB", fig.name, snr)] = p.Pd
				}
			}
		}
		if fig.name == "fig6" {
			rep.Figures["fig6_fa_per_sec"] = res.FalseAlarmsPerSec
		}
	}

	sweep := experiments.DefaultJamSweep(iperf.JamReactive, 100*time.Microsecond)
	sweep.Packets = packets
	pts, err := experiments.RunJamSweep(sweep)
	if err != nil {
		return fmt.Errorf("fig10: %w", err)
	}
	rep.Figures["fig10_prr_strongest"] = pts[0].Result.PRR
	rep.Figures["fig10_prr_weakest"] = pts[len(pts)-1].Result.PRR

	res, err := experiments.Selectivity(frames/4, 15, 9)
	if err != nil {
		return fmt.Errorf("selectivity: %w", err)
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
	rep.Figures["selectivity_min_diagonal_pd"] = minDiag
	rep.Figures["selectivity_max_cross_pd"] = maxCross
	return nil
}

// measureAll fills rep with every measurement the gate table reads: the
// same-run ratios and the overhead always, the seeded figures when figures
// is set.
func measureAll(rep *BenchReport, window time.Duration, figures bool, frames, packets int) error {
	if err := throughputSection(rep, window); err != nil {
		return err
	}
	if err := overheadSection(rep, window); err != nil {
		return err
	}
	if !figures {
		return nil
	}
	fmt.Printf("  running experiments (%d frames, %d packets, parallelism %d)...\n",
		frames, packets, experiments.Parallelism())
	return experimentSection(rep, frames, packets)
}

// writeBenchJSON produces the benchmark baseline at path. An existing
// baseline is preserved unless force is set.
func writeBenchJSON(path string, force bool, frames, packets int) error {
	if !force {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%s exists; pass -force (make bench-json FORCE=1) to overwrite", path)
		}
	}
	rep := &BenchReport{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Parallelism: experiments.Parallelism(),
		Frames:      frames,
		Packets:     packets,
		Figures:     map[string]float64{},
	}
	fmt.Printf("measuring (%d GOMAXPROCS, %d CPUs)...\n", rep.GOMAXPROCS, rep.NumCPU)
	if err := measureAll(rep, fullWindow, true, frames, packets); err != nil {
		return err
	}
	// The report is the gate table read against itself: every figure
	// trivially matches, and the same-run gates show whether this baseline
	// would pass a bench-diff on the host that records it.
	for _, o := range evaluate(rep, rep, false) {
		fmt.Println(o)
	}
	sum := profile.Capture()
	rep.Profile = &sum
	fmt.Printf("  heap %.1f MiB live, %.1f MiB cumulative, %d GCs\n",
		float64(sum.HeapAllocBytes)/(1<<20), float64(sum.TotalAllocBytes)/(1<<20), sum.NumGC)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
