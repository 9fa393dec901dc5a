package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/wifi"
	"repro/internal/wifib"
	"repro/internal/wimax"
)

// TestStreamMatchesRadios pins the shared front end against the harness it
// replaced: k probes of one stream, behind one DDC, end every block with
// the Stats and transmit output of k radios of their own, each with its
// own DDC, fed the same blocks. Every other probe carries a recorder, and
// its journal, frame markers included, equals that of its radio marking
// each frame with radio.MarkFrame.
func TestStreamMatchesRadios(t *testing.T) {
	wgn := host.Personality{Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1}
	dets := []host.Detector{
		{EnergyThresholdDB: host.EnergyRiseDB},
		{Template: host.WiFiShortTemplate(), ThresholdFrac: 0.55},
		{Template: host.WiFiLongTemplate(), FATargetPerSec: 0.52, EnergyThresholdDB: host.EnergyRiseDB},
		{Template: host.WiFiShortTemplate(), ThresholdFrac: 0.3},
	}
	// Full frames at 12 dB over the floor, each block a frame between
	// gaps, so the blocks vary in length and the detectors fire.
	var blocks []dsp.Samples
	next := overNoise(newFrameSource(FullFrame, 3).frame, interFrameGap, 12, impair.Config{}, 3)
	for f := 0; f < 6; f++ {
		b, err := next(f)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b.Clone())
	}
	triggers := func(s core.Stats) uint64 { return s.JamTriggers }
	for _, rate := range []int{wifi.SampleRate, wifib.SampleRate, 11_400_000, wimax.ActualSampleRate, 25_000_000} {
		for _, k := range []int{1, 2, 4} {
			outs := make([]tally, k)
			probes := make([]probe, k)
			want := make([]*radio.N210, k)
			recs := make([][2]*telemetry.Live, k) // the probe's and its radio's
			for i := range probes {
				probes[i] = probe{det: dets[i], jam: wgn, count: triggers, out: &outs[i]}
				want[i] = radio.New()
				if i%2 == 0 {
					recs[i] = [2]*telemetry.Live{telemetry.NewLive(1 << 10), telemetry.NewLive(1 << 10)}
					probes[i].rec = recs[i][0]
				}
				if err := want[i].SetSourceRate(rate); err != nil {
					t.Fatal(err)
				}
				h := host.New(want[i].Core())
				if err := h.Arm(dets[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := h.ProgramJammer(wgn); err != nil {
					t.Fatal(err)
				}
				want[i].Start()
				if rec := recs[i][1]; rec != nil {
					want[i].Core().SetRecorder(rec)
				}
			}
			s := &stream{sourceHz: rate, blocks: len(blocks), lead: interFrameGap, probes: probes,
				block: func(i int) (dsp.Samples, error) { return blocks[i], nil }}
			block := 0
			s.after = func(radios []*radio.N210, tx []dsp.Samples) {
				for i, r := range want {
					r.MarkFrame(interFrameGap)
					wantTX, err := r.Process(blocks[block])
					if err != nil {
						t.Fatal(err)
					}
					if got, w := radios[i].Core().Stats(), r.Core().Stats(); got != w {
						t.Fatalf("%d Hz, %d cores: core %d after block %d: stats %+v, want %+v", rate, k, i, block, got, w)
					}
					if !reflect.DeepEqual(tx[i], wantTX) {
						t.Fatalf("%d Hz, %d cores: core %d block %d: transmit output differs", rate, k, i, block)
					}
				}
				block++
			}
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
			if block != len(blocks) {
				t.Fatalf("%d Hz: %d blocks ran, want %d", rate, block, len(blocks))
			}
			for i, rec := range recs {
				if rec[0] == nil {
					continue
				}
				got, w := rec[0].Events(), rec[1].Events()
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("%d Hz, %d cores: core %d journals %v, want %v", rate, k, i, got, w)
				}
				var marks []uint64
				for _, e := range got {
					if e.Kind == telemetry.EvFrameStart {
						marks = append(marks, e.Cycle)
					}
				}
				if len(marks) != len(blocks) || marks[1] <= marks[0] {
					t.Fatalf("%d Hz: frame markers at cycles %v, want one per block", rate, marks)
				}
			}
			if st := want[0].Core().Stats(); st.JamTriggers == 0 || st.JamSamples == 0 {
				t.Fatalf("%d Hz: the energy detector never fired a jam burst: %+v", rate, st)
			}
		}
	}
}

// countPasses wraps the block function of every stream of a plan, counting
// the passes through the front end (block 0 of a stream) and the blocks
// synthesized in all.
func countPasses(ss []*stream) (passes, blocks *atomic.Int64) {
	passes, blocks = new(atomic.Int64), new(atomic.Int64)
	for _, s := range ss {
		inner := s.block
		s.block = func(i int) (dsp.Samples, error) {
			if i == 0 {
				passes.Add(1)
			}
			blocks.Add(1)
			return inner(i)
		}
	}
	return passes, blocks
}

// alone runs a fresh plan once per probe, that probe on its own stream,
// with its tally landing where the probe of ss leaves it: the one radio per
// configuration that a plan's shared streams replace.
func alone[R any](t *testing.T, ss []*stream, plan func() ([]*stream, func() R, error)) {
	t.Helper()
	for si := range ss {
		for k, p := range ss[si].probes {
			fresh, _, err := plan()
			if err != nil {
				t.Fatal(err)
			}
			s := fresh[si]
			q := s.probes[k]
			q.out, *p.out = p.out, tally{}
			s.probes = []probe{q}
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFrontEndPasses pins how many times each figure synthesizes and
// resamples its input: once per stream that the configurations share, and
// each block once. A shared plan's result equals that of every probe run
// on a front end of its own.
func TestFrontEndPasses(t *testing.T) {
	const frames = 2
	fig6 := []DetectionConfig{
		Fig6Config(SingleLongPreamble, false, frames), Fig6Config(SingleLongPreamble, true, frames),
		Fig6Config(FullFrame, false, frames), Fig6Config(FullFrame, true, frames),
	}
	plan6 := func() ([]*stream, func() []*DetectionResult, error) { return detectionStreams(fig6) }
	ss, result, err := plan6()
	if err != nil {
		t.Fatal(err)
	}
	var faStreams, faProbes, pointStreams, pointProbes, wantBlocks int
	for _, s := range ss {
		wantBlocks += s.blocks
		if s.blocks == frames {
			pointStreams++
			pointProbes += len(s.probes)
		} else {
			faStreams++
			faProbes += len(s.probes)
		}
	}
	if faStreams != 1 || faProbes != 4 || pointStreams != 22 || pointProbes != 44 {
		t.Errorf("fig6: false-alarm streams %d for %d configurations, SNR-point streams %d for %d points; want 1 for 4, 22 for 44",
			faStreams, faProbes, pointStreams, pointProbes)
	}
	n, blocks := countPasses(ss)
	shared, err := measure(ss, result, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 23 || blocks.Load() != int64(wantBlocks) {
		t.Errorf("fig6: %d front-end passes and %d blocks, want 23 and %d", n.Load(), blocks.Load(), wantBlocks)
	}
	alone(t, ss, plan6)
	if separate := result(); !reflect.DeepEqual(shared, separate) {
		t.Errorf("fig6: shared streams %+v, one front end per configuration %+v", shared, separate)
	}

	planSel := func() ([]*stream, func() *SelectivityResult, error) { return selectivityStreams(3, 15, 9) }
	ss, resSel, err := planSel()
	if err != nil {
		t.Fatal(err)
	}
	n, blocks = countPasses(ss)
	sel, err := measure(ss, resSel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 || n.Load() != 3 || blocks.Load() != 9 {
		t.Errorf("selectivity: %d streams, %d passes, %d blocks; want 3, 3, 9", len(ss), n.Load(), blocks.Load())
	}
	for _, s := range ss {
		if len(s.probes) != 4 {
			t.Errorf("selectivity: a stream with %d detectors, want 4", len(s.probes))
		}
	}
	alone(t, ss, planSel)
	if separate := resSel(); !reflect.DeepEqual(sel, separate) {
		t.Errorf("selectivity: shared streams %+v, one front end per cell %+v", sel, separate)
	}

	ss, _, err = fig12Streams(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = countPasses(ss)
	if err := ss[0].run(); err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 || len(ss[0].probes) != 2 || n.Load() != 1 {
		t.Errorf("fig12: %d streams with %d detectors, %d passes; want 1 with 2, 1", len(ss), len(ss[0].probes), n.Load())
	}
}
