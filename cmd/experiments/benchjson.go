package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/fixed"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/telemetry/profile"
	"repro/internal/wifi"
	"repro/internal/xcorr"
)

// BenchReport is the machine-readable benchmark baseline written by
// -bench-json (the `make bench-json` target). It captures the datapath
// throughput, per-experiment wall clock, and the headline detection figures
// so a later commit can diff performance and correctness in one file.
type BenchReport struct {
	Date        string `json:"date"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	// Frames and Packets record the statistical budgets the figures were
	// measured at, so bench-diff can re-run with identical budgets (older
	// baselines without them fall back to the current defaults).
	Frames  int `json:"frames,omitempty"`
	Packets int `json:"packets,omitempty"`

	// ThroughputMsps reports the sample-rate of each datapath entry point in
	// millions of samples per second. The real hardware runs at 25 MSPS; any
	// figure above 25 means the model is faster than real time.
	ThroughputMsps struct {
		CorePerSample float64 `json:"core_per_sample"`
		CoreBlock     float64 `json:"core_block"`
		// CoreBlockParallel is the aggregate rate of GOMAXPROCS independent
		// cores each running the block path — the multi-channel deployment
		// shape. BlockWorkers records how many goroutines contributed
		// (older baselines without these fields diff cleanly).
		CoreBlockParallel float64 `json:"core_block_parallel,omitempty"`
		BlockWorkers      int     `json:"block_workers,omitempty"`
		XCorrPacked       float64 `json:"xcorr_packed"`
		XCorrReference    float64 `json:"xcorr_reference"`
		PackedOverRef     float64 `json:"packed_over_reference"`
		// BlockOverScalar is CoreBlock / CorePerSample: the fused block
		// datapath must never lose to the scalar path, so bench-diff gates
		// on this ratio staying >= 1.
		BlockOverScalar float64 `json:"block_over_scalar,omitempty"`
		// WiFiTx and WiFiRx are the 802.11a/g modem batch-codec rates: one
		// 1000-byte PSDU at 54 Mb/s modulated (TxFrame) and demodulated
		// (RxFrame, including sync search and Viterbi decode) per call.
		// Older baselines without them diff cleanly.
		WiFiTx float64 `json:"wifi_tx_Msps,omitempty"`
		WiFiRx float64 `json:"wifi_rx_Msps,omitempty"`
		// FlowSync and FlowPipeline are the flowgraph runtime's rates on the
		// full host datapath graph (source+noise→impairments→core→sink with
		// a probe tap): the synchronous reference scheduler versus the
		// backpressured pipelined one, measured after a bit-exactness check.
		// PipelineOverSync is their ratio; bench-diff gates it — the rings
		// must not cost more than scheduling noise on one core, and must
		// win outright once GOMAXPROCS > 1. Older baselines without these
		// fields diff cleanly.
		FlowSync         float64 `json:"flow_sync_Msps,omitempty"`
		FlowPipeline     float64 `json:"flow_pipeline_Msps,omitempty"`
		PipelineOverSync float64 `json:"pipeline_over_sync,omitempty"`
	} `json:"throughput_msps"`

	// FleetCellsPerSec is the fleet observability drill's rate: cells run,
	// merged, SLO-evaluated and reconciled per second through the fleet
	// aggregation plane (older baselines without it diff cleanly).
	FleetCellsPerSec float64 `json:"fleet_cells_per_sec,omitempty"`
	// TelemetryOverheadPct is the block-datapath throughput cost of running
	// with the live recorder attached and the fleet plane snapshotting in
	// the background, relative to a bare core. bench-diff gates the fresh
	// value at 3% in full mode. It is signed: a negative value is
	// measurement noise (the instrumented run came out faster).
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`

	// Experiments lists wall-clock per experiment at the report's budgets.
	Experiments []ExperimentTiming `json:"experiments"`

	// Figures carries the key detection-probability results so a performance
	// regression that changes behaviour is caught by the same diff.
	Figures map[string]float64 `json:"figures"`

	// Profile summarizes the process's memory/GC state after the benchmark
	// runs (older baselines without it still parse and diff cleanly).
	Profile *profile.Summary `json:"profile,omitempty"`
}

// ExperimentTiming is one experiment's wall-clock entry.
type ExperimentTiming struct {
	Name        string  `json:"name"`
	WallClockMS float64 `json:"wall_clock_ms"`
}

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

	// Parallel block throughput: one independent core per GOMAXPROCS worker,
	// all running the block path at once, summed.
	workers := runtime.GOMAXPROCS(0)
	cores := make([]*core.Core, workers)
	for i := range cores {
		if cores[i], err = benchCore(); err != nil {
			return err
		}
	}
	txs := make([][]complex128, workers)
	for i := range txs {
		txs[i] = make([]complex128, len(buf))
	}
	rep.ThroughputMsps.BlockWorkers = workers
	rep.ThroughputMsps.CoreBlockParallel = measureThroughput(len(buf)*workers, window, func() {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(i int) {
				defer wg.Done()
				cores[i].ProcessBlock(buf, txs[i])
			}(i)
		}
		wg.Wait()
	})

	// Kernel-only comparison: the packed popcount correlator against the
	// scalar reference on identical quantized input.
	iq := make([]fixed.IQ, len(buf))
	for i, s := range buf {
		iq[i] = fixed.Quantize(s)
	}
	iC, qC := xcorr.CoefficientsFromTemplate(host.WiFiShortTemplate())
	packed := xcorr.New()
	if err := packed.SetCoefficients(iC, qC); err != nil {
		return err
	}
	rep.ThroughputMsps.XCorrPacked = measureThroughput(len(iq), window, func() {
		for _, q := range iq {
			packed.Process(q)
		}
	})
	ref := xcorr.NewReference()
	if err := ref.SetCoefficients(iC, qC); err != nil {
		return err
	}
	rep.ThroughputMsps.XCorrReference = measureThroughput(len(iq), window, func() {
		for _, q := range iq {
			ref.Process(q)
		}
	})
	if rep.ThroughputMsps.XCorrReference > 0 {
		rep.ThroughputMsps.PackedOverRef =
			rep.ThroughputMsps.XCorrPacked / rep.ThroughputMsps.XCorrReference
	}

	// Modem batch codecs: one 1000-byte PSDU at 54 Mb/s per call. The RX
	// search window brackets the long preamble start at sample 192.
	psdu := make([]byte, 1000)
	for i := range psdu {
		psdu[i] = byte(i * 7)
	}
	cfg := wifi.TxConfig{Rate: wifi.Rate54, ScramblerSeed: 0x5D}
	frameLen := wifi.FrameDuration(cfg.Rate, len(psdu))
	var txc wifi.TxCodec
	frame := make(dsp.Samples, 0, frameLen)
	frame, err = txc.TxFrame(frame, psdu, cfg)
	if err != nil {
		return err
	}
	rep.ThroughputMsps.WiFiTx = measureThroughput(frameLen, window, func() {
		frame, _ = txc.TxFrame(frame[:0], psdu, cfg)
	})
	var rxc wifi.RxCodec
	if _, err := rxc.RxFrame(frame, 144, 240); err != nil {
		return err
	}
	rep.ThroughputMsps.WiFiRx = measureThroughput(frameLen, window, func() {
		rxc.RxFrame(frame, 144, 240) //nolint:errcheck // checked once above
	})

	// Flowgraph schedulers on the full host datapath graph: one chunk size
	// (the default 4096) is enough for the gate; the flowpipe experiment
	// sweeps more. RunFlowPipe verifies bit-exactness before timing.
	fp, err := experiments.RunFlowPipe(experiments.FlowPipeConfig{
		TotalSamples:  1 << 20,
		VerifySamples: 1 << 17,
		Chunks:        []int{4096},
		Seed:          11,
		MinDuration:   window,
	})
	if err != nil {
		return err
	}
	rep.ThroughputMsps.FlowSync = fp.Points[0].SyncMsps
	rep.ThroughputMsps.FlowPipeline = fp.Points[0].PipelineMsps
	rep.ThroughputMsps.PipelineOverSync = fp.Points[0].Ratio
	return nil
}

// fleetSection measures the fleet telemetry plane: the fleetobs drill rate
// in cells per second (including reconciliation) and the telemetry overhead
// of the instrumented block datapath against a bare core.
func fleetSection(rep *BenchReport, window time.Duration) error {
	cells := 64
	if window < 100*time.Millisecond {
		cells = 16
	}
	start := time.Now()
	res, err := experiments.RunFleetObs(experiments.FleetObsConfig{
		Cells: cells, FramesPerCell: 3, Seed: 7,
	})
	if err != nil {
		return err
	}
	if err := res.Reconcile(); err != nil {
		return err
	}
	rep.FleetCellsPerSec = float64(cells) / time.Since(start).Seconds()

	// Overhead: the same block workload on a bare core and on one with the
	// live recorder attached, bound to a fleet cell, with the aggregation
	// loop snapshotting concurrently — the full observability tax.
	buf := benchInput()
	tx := make([]complex128, len(buf))
	bare, err := benchCore()
	if err != nil {
		return err
	}
	bareMsps := measureThroughput(len(buf), window, func() { bare.ProcessBlock(buf, tx) })

	inst, err := benchCore()
	if err != nil {
		return err
	}
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	inst.SetRecorder(live)
	agg := fleet.New(fleet.Options{})
	agg.Cell("bench").BindLive(live)
	agg.Start(50 * time.Millisecond)
	instMsps := measureThroughput(len(buf), window, func() { inst.ProcessBlock(buf, tx) })
	agg.Stop()
	rep.TelemetryOverheadPct = overheadPct(bareMsps, instMsps)
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

func experimentSection(rep *BenchReport, frames, packets int) error {
	timed := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentTiming{
			Name:        name,
			WallClockMS: float64(time.Since(start).Microseconds()) / 1000,
		})
		return nil
	}

	if err := timed("fig6-single-loose", func() error {
		res, err := experiments.CharacterizeDetection(
			experiments.Fig6Config(experiments.SingleLongPreamble, false, frames))
		if err != nil {
			return err
		}
		for _, p := range res.Points {
			switch p.SNRdB {
			case -4, 2, 10:
				rep.Figures[fmt.Sprintf("fig6_pd_%+gdB", p.SNRdB)] = p.Pd
			}
		}
		rep.Figures["fig6_fa_per_sec"] = res.FalseAlarmsPerSec
		return nil
	}); err != nil {
		return err
	}

	if err := timed("fig7-short-preamble", func() error {
		res, err := experiments.CharacterizeDetection(experiments.Fig7Config(frames))
		if err != nil {
			return err
		}
		for _, p := range res.Points {
			switch p.SNRdB {
			case -4, 2, 10:
				rep.Figures[fmt.Sprintf("fig7_pd_%+gdB", p.SNRdB)] = p.Pd
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := timed("fig8-energy", func() error {
		res, err := experiments.CharacterizeDetection(experiments.Fig8Config(frames))
		if err != nil {
			return err
		}
		for _, p := range res.Points {
			if p.SNRdB == 14 {
				rep.Figures["fig8_pd_+14dB"] = p.Pd
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := timed("fig10-reactive-sweep", func() error {
		cfg := experiments.DefaultJamSweep(iperf.JamReactive, 100*time.Microsecond)
		cfg.Packets = packets
		pts, err := experiments.RunJamSweep(cfg)
		if err != nil {
			return err
		}
		rep.Figures["fig10_prr_strongest"] = pts[0].Result.PRR
		rep.Figures["fig10_prr_weakest"] = pts[len(pts)-1].Result.PRR
		return nil
	}); err != nil {
		return err
	}

	return timed("selectivity", func() error {
		res, err := experiments.Selectivity(frames/4, 15, 9)
		if err != nil {
			return err
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
	})
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
		Parallelism: experiments.Parallelism(),
		Frames:      frames,
		Packets:     packets,
		Figures:     map[string]float64{},
	}
	fmt.Printf("measuring datapath throughput...\n")
	if err := throughputSection(rep, 300*time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("  core per-sample %6.2f Msamples/s\n", rep.ThroughputMsps.CorePerSample)
	fmt.Printf("  core block      %6.2f Msamples/s (%.2fx over per-sample)\n",
		rep.ThroughputMsps.CoreBlock, rep.ThroughputMsps.BlockOverScalar)
	fmt.Printf("  core block x%-2d  %6.2f Msamples/s aggregate\n",
		rep.ThroughputMsps.BlockWorkers, rep.ThroughputMsps.CoreBlockParallel)
	fmt.Printf("  xcorr packed    %6.2f Msamples/s (%.1fx over scalar reference)\n",
		rep.ThroughputMsps.XCorrPacked, rep.ThroughputMsps.PackedOverRef)
	fmt.Printf("  wifi tx frame   %6.2f Msamples/s\n", rep.ThroughputMsps.WiFiTx)
	fmt.Printf("  wifi rx frame   %6.2f Msamples/s\n", rep.ThroughputMsps.WiFiRx)
	fmt.Printf("  flow sync       %6.2f Msamples/s\n", rep.ThroughputMsps.FlowSync)
	fmt.Printf("  flow pipeline   %6.2f Msamples/s (%.2fx over sync)\n",
		rep.ThroughputMsps.FlowPipeline, rep.ThroughputMsps.PipelineOverSync)
	fmt.Printf("measuring fleet telemetry plane...\n")
	if err := fleetSection(rep, 300*time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("  fleet drill     %6.0f cells/s\n", rep.FleetCellsPerSec)
	fmt.Printf("  telemetry tax   %6.2f %% of block throughput\n", rep.TelemetryOverheadPct)
	fmt.Printf("running experiments (%d frames, %d packets, parallelism %d)...\n",
		frames, packets, rep.Parallelism)
	if err := experimentSection(rep, frames, packets); err != nil {
		return err
	}
	for _, e := range rep.Experiments {
		fmt.Printf("  %-22s %8.0f ms\n", e.Name, e.WallClockMS)
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
