// Benchmark harness: BenchmarkFigures runs every seeded section of the
// paper's evaluation (experiments.Figures) at the budget of the figure
// golden, so
//
//	go test -run='^$' -bench=Figures -benchmem
//
// prints each section's ns/op and B/op; the golden pins the values the
// sections compute. The core benchmarks time the datapath alone.
package reactivejam

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
)

// BenchmarkFigures runs each section of experiments.Figures at
// experiments.DefaultBudget, one sub-benchmark per section, named after it
// (BenchmarkFigures/fig10 is Fig. 10's curves).
func BenchmarkFigures(b *testing.B) {
	for _, fig := range experiments.Figures() {
		b.Run(fig.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Every iteration starts from the same heap: a sync.Pool
				// (iperf's scratch pool) keeps its victim cache across one
				// GC and drops it at the second, so bytes per op do not
				// depend on the iteration count.
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				var r experiments.Records
				if err := fig.Run(&r, experiments.DefaultBudget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// engagementBlock is the core benchmarks' stimulus, shaped like the
// incident drill's: a quiet lead that re-arms the detectors, then the WiFi
// short preamble tiled four times at 12 dB over a -60 dBFS noise floor, then
// quiet long enough for the jam burst to finish, 4096 samples in all.
func engagementBlock() []complex128 {
	tpl := host.WiFiShortTemplate()
	frame := make(dsp.Samples, 0, 4*len(tpl))
	for i := 0; i < 4; i++ {
		frame = append(frame, tpl...)
	}
	const floor, lead = 1e-6, 512
	buf := dsp.Frame(nil, frame, lead, 4096-lead-len(frame), 12, floor)
	return dsp.NewNoiseSource(floor, 77).AddTo(buf)
}

// benchJammer is the personality the core benchmarks engage with: a 10 µs
// WGN burst per trigger.
var benchJammer = host.Personality{Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1}

// BenchmarkCorePerSample measures the raw datapath throughput of the DSP
// core through the framework (engineering metric, not a paper figure), one
// engagement per block.
func BenchmarkCorePerSample(b *testing.B) {
	f := New()
	if err := f.DetectWiFiShortPreamble(0.1); err != nil {
		b.Fatal(err)
	}
	if _, err := f.SetPersonality(Personality{Waveform: WGN, Uptime: benchJammer.Uptime, Gain: 1}); err != nil {
		b.Fatal(err)
	}
	buf := engagementBlock()
	if _, err := f.Process(buf); err != nil {
		b.Fatal(err)
	}
	if f.Stats().JamTriggers == 0 {
		b.Fatal("the warm-up block fired no trigger")
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
// quantization, recorder dispatch and counter updates out of the loop. The
// block path runs with both detectors armed and with one of them, where it
// skips the detector that cannot fire. Every block holds one engagement:
// detection, trigger and a jam burst.
func BenchmarkCoreDatapath(b *testing.B) {
	buf := engagementBlock()
	// build arms a core through host.Arm, so the trigger follows the armed
	// detectors, and fails unless a warm-up block fires it.
	build := func(xcorr, energy bool) (*core.Core, error) {
		var d host.Detector
		if xcorr {
			d.Template, d.FATargetPerSec = host.WiFiShortTemplate(), 0.1
		}
		if energy {
			d.EnergyThresholdDB = host.EnergyRiseDB
		}
		c := core.New()
		h := host.New(c)
		if err := h.Arm(d); err != nil {
			return nil, err
		}
		if _, err := h.ProgramJammer(benchJammer); err != nil {
			return nil, err
		}
		c.ResetDatapath()
		c.ProcessBlock(buf, make([]complex128, len(buf)))
		if c.Stats().JamTriggers == 0 {
			return nil, fmt.Errorf("xcorr=%v energy=%v: the warm-up block fired no trigger", xcorr, energy)
		}
		return c, nil
	}
	b.Run("per-sample", func(b *testing.B) {
		c, err := build(true, true)
		if err != nil {
			b.Fatal(err)
		}
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
	for _, arm := range []struct {
		name          string
		xcorr, energy bool
	}{{"block", true, true}, {"block-xcorr-only", true, false}, {"block-energy-only", false, true}} {
		b.Run(arm.name, func(b *testing.B) {
			c, err := build(arm.xcorr, arm.energy)
			if err != nil {
				b.Fatal(err)
			}
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
	}
	// block-parallel models the multi-channel deployment: GOMAXPROCS
	// independent cores each streaming blocks at once. Aggregate Msps should
	// scale near-linearly since the block path allocates nothing in steady
	// state and shares no mutable data between cores.
	b.Run("block-parallel", func(b *testing.B) {
		var n int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			c, err := build(true, true)
			if err != nil {
				b.Error(err) // Fatal must not run on a RunParallel goroutine
				return
			}
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
