package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/jammer"
	"repro/internal/telemetry"
	"repro/internal/trigger"
)

// parityInput builds a deterministic capture with two distinct energy
// bursts separated by quiet noise, so a run opens (and closes) more than
// one detection engagement.
func parityInput() []complex128 {
	rng := rand.New(rand.NewSource(41))
	buf := make([]complex128, 0, 4000)
	segment := func(n int, amp float64) {
		for i := 0; i < n; i++ {
			buf = append(buf, complex(rng.NormFloat64(), rng.NormFloat64())*complex(amp, 0))
		}
	}
	segment(600, 0.003)
	segment(300, 0.5)
	segment(900, 0.003)
	segment(300, 0.5)
	segment(600, 0.003)
	return buf
}

// parityConfigs are the register configurations of the journal parity
// test, each written over programEnergyHigh's 100-sample WGN burst, and the
// event kind the per-sample run must journal for the configuration to test
// what it names. Each names an event a batched span must end on: the burst
// and holdoff of an energy-high trigger, a sequence trigger's window expiry
// (energy-high then energy-low within 100 samples; the 300-sample bursts
// fall later, so the window abandons), a completing sequence, surgical
// delays, and the replay waveform. The energy-high level stays set for
// more than 60 samples of a burst's rise, and the datapath steps those
// samples one at a time; only the 100-sample delay ends, and turns RF on,
// inside a batched span.
var parityConfigs = []struct {
	name   string
	writes map[uint8]uint32
	want   telemetry.EventKind
}{
	{"energy-high", nil, telemetry.EvHoldoffRelease},
	{"sequence-expires", sequenceWrites(100), telemetry.EvTriggerAbandon},
	{"sequence-fires", sequenceWrites(400), telemetry.EvJamRFOff},
	{"delay-3", map[uint8]uint32{RegJammerDelay: 3}, telemetry.EvJamDelay},
	{"delay-7", map[uint8]uint32{RegJammerDelay: 7}, telemetry.EvJamDelay},
	{"delay-33", map[uint8]uint32{RegJammerDelay: 33}, telemetry.EvJamDelay},
	{"delay-100", map[uint8]uint32{RegJammerDelay: 100}, telemetry.EvJamDelay},
	{"replay", map[uint8]uint32{
		RegJammerWaveform: uint32(jammer.WaveformReplay),
		RegJammerUptime:   600,
	}, telemetry.EvJamRFOff},
}

// sequenceWrites programs a two-stage energy-high → energy-low sequence
// with the given window.
func sequenceWrites(window uint32) map[uint8]uint32 {
	return map[uint8]uint32{
		RegEnergyConfig:    3,
		RegEnergyThreshLow: 1000,
		RegTriggerConfig: uint32(trigger.EventEnergyHigh) |
			uint32(trigger.EventEnergyLow)<<4 | 2<<12,
		RegTriggerWindow: window,
	}
}

// TestBlockModeTelemetryParity is the differential check behind the block
// datapath: with a live recorder attached, ProcessBlock must produce the
// exact event stream — kinds, clock stamps, args and engagement IDs — and
// the exact TX output that the per-sample path produces, at every block
// size including ones that straddle the burst boundaries, for every
// configuration of parityConfigs.
func TestBlockModeTelemetryParity(t *testing.T) {
	input := parityInput()
	for _, cfg := range parityConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			checkTelemetryParity(t, input, cfg.writes, cfg.want)
		})
	}
}

func checkTelemetryParity(t *testing.T, input []complex128, writes map[uint8]uint32, want telemetry.EventKind) {
	run := func(blockLens []int) ([]complex128, telemetry.Snapshot, []telemetry.Event) {
		c := New()
		programEnergyHigh(t, c, 100)
		for a, v := range writes {
			if err := c.Bus().Write(a, v); err != nil {
				t.Fatal(err)
			}
		}
		live := telemetry.NewLive(telemetry.DefaultJournalDepth)
		c.SetRecorder(live)
		tx := make([]complex128, 0, len(input))
		if blockLens == nil {
			for _, s := range input {
				tx = append(tx, c.ProcessSample(s))
			}
		} else {
			rest := input
			for i := 0; len(rest) > 0; i++ {
				n := blockLens[i%len(blockLens)]
				if n > len(rest) {
					n = len(rest)
				}
				out := make([]complex128, n)
				c.ProcessBlock(rest[:n], out)
				tx = append(tx, out...)
				rest = rest[n:]
			}
		}
		return tx, live.Snapshot(), live.Events()
	}

	wantTx, wantSnap, wantEvents := run(nil)
	if !slices.ContainsFunc(wantEvents, func(e telemetry.Event) bool { return e.Kind == want }) {
		t.Fatalf("per-sample reference run journaled no %v event", want)
	}
	if wantSnap.Engagements == 0 {
		t.Fatal("per-sample reference run closed no engagements")
	}
	if wantSnap.Dropped != 0 {
		t.Fatalf("journal overflowed (%d dropped); deepen it for this test", wantSnap.Dropped)
	}

	for _, blocks := range [][]int{{1}, {7}, {64}, {4096}, {1, 3, 127, 64, 300}} {
		gotTx, gotSnap, gotEvents := run(blocks)
		if len(gotTx) != len(wantTx) {
			t.Fatalf("blocks %v: %d tx samples, want %d", blocks, len(gotTx), len(wantTx))
		}
		for i := range wantTx {
			if gotTx[i] != wantTx[i] {
				t.Fatalf("blocks %v: tx[%d] = %v, want %v", blocks, i, gotTx[i], wantTx[i])
			}
		}
		if len(gotEvents) != len(wantEvents) {
			t.Fatalf("blocks %v: %d events, want %d", blocks, len(gotEvents), len(wantEvents))
		}
		for i, w := range wantEvents {
			if gotEvents[i] != w {
				t.Fatalf("blocks %v: event %d = %+v, want %+v", blocks, i, gotEvents[i], w)
			}
		}
		if gotSnap.Counters != wantSnap.Counters {
			t.Errorf("blocks %v: counters %+v, want %+v", blocks, gotSnap.Counters, wantSnap.Counters)
		}
		if gotSnap.Engagements != wantSnap.Engagements {
			t.Errorf("blocks %v: %d engagements, want %d",
				blocks, gotSnap.Engagements, wantSnap.Engagements)
		}
	}
}

// TestBlockModeNopRecorderParity confirms the fast path: with no recorder
// attached the block datapath still advances the sample
// clock by the block length and produces identical TX output.
func TestBlockModeNopRecorderParity(t *testing.T) {
	input := parityInput()

	ref := New()
	programEnergyHigh(t, ref, 100)
	wantTx := make([]complex128, len(input))
	for i, s := range input {
		wantTx[i] = ref.ProcessSample(s)
	}

	c := New()
	programEnergyHigh(t, c, 100)
	gotTx := make([]complex128, len(input))
	c.ProcessBlock(input, gotTx)
	for i := range wantTx {
		if gotTx[i] != wantTx[i] {
			t.Fatalf("tx[%d] = %v, want %v", i, gotTx[i], wantTx[i])
		}
	}
	if got, want := c.Stats().Samples, ref.Stats().Samples; got != want {
		t.Errorf("Samples = %d, want %d", got, want)
	}
}
