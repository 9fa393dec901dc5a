package radio

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/telemetry"
	"repro/internal/trigger"
)

// Radio-level live-recorder parity: a radio streaming buffers of any size
// through the core's block datapath must journal the exact event stream —
// kinds, cycle stamps, args and engagement IDs — that a per-sample core fed
// the same samples produces.

// burstyCapture builds a capture whose loud spans drive detections and full
// jam-burst lifecycles through a 10 dB energy trigger.
func burstyCapture(n int) []complex128 {
	rng := rand.New(rand.NewSource(97))
	buf := make([]complex128, 0, n)
	for len(buf) < n {
		amp := 0.002
		if len(buf)/500%3 == 1 {
			amp = 0.4
		}
		buf = append(buf, complex(rng.NormFloat64(), rng.NormFloat64())*complex(amp, 0))
	}
	return buf
}

func programBench(t *testing.T, c *core.Core) *telemetry.Live {
	t.Helper()
	h := host.New(c)
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProgramTrigger(core.FusionSequence,
		[]trigger.Event{trigger.EventEnergyHigh}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProgramJammer(host.Personality{Name: "parity",
		Waveform: jammer.WaveformWGN, Uptime: 4 * time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	c.SetRecorder(live)
	return live
}

func TestRadioBlockModeJournalParity(t *testing.T) {
	input := burstyCapture(4000)

	// Per-sample reference: a bare core fed the same samples one at a time.
	refCore := core.New()
	refLive := programBench(t, refCore)
	refCore.ResetDatapath()
	wantTx := make([]complex128, len(input))
	for i, s := range input {
		wantTx[i] = refCore.ProcessSample(s)
	}
	wantEvents := refLive.Events()
	wantSnap := refLive.Snapshot()
	if len(wantEvents) == 0 || wantSnap.Engagements == 0 {
		t.Fatalf("reference run inert: %d events, %d engagements",
			len(wantEvents), wantSnap.Engagements)
	}
	if wantSnap.Dropped != 0 {
		t.Fatalf("journal overflowed (%d dropped); deepen it for this test", wantSnap.Dropped)
	}

	for _, blocks := range [][]int{{4000}, {64}, {1, 3, 127, 64, 300}, {7}} {
		r := New()
		live := programBench(t, r.Core())
		r.Start()

		gotTx := make([]complex128, 0, len(input))
		rest := input
		for i := 0; len(rest) > 0; i++ {
			n := blocks[i%len(blocks)]
			if n > len(rest) {
				n = len(rest)
			}
			out, err := r.Process(rest[:n])
			if err != nil {
				t.Fatal(err)
			}
			gotTx = append(gotTx, out...)
			rest = rest[n:]
		}

		for i := range wantTx {
			if gotTx[i] != wantTx[i] {
				t.Fatalf("blocks %v: tx[%d] = %v, want %v", blocks, i, gotTx[i], wantTx[i])
			}
		}
		gotEvents := live.Events()
		if len(gotEvents) != len(wantEvents) {
			t.Fatalf("blocks %v: %d events, want %d", blocks, len(gotEvents), len(wantEvents))
		}
		for i, w := range wantEvents {
			if gotEvents[i] != w {
				t.Fatalf("blocks %v: event %d = %+v (cycle %d, eng %d), want %+v (cycle %d, eng %d)",
					blocks, i, gotEvents[i], gotEvents[i].Cycle, gotEvents[i].Eng,
					w, w.Cycle, w.Eng)
			}
		}
		gotSnap := live.Snapshot()
		if gotSnap.Engagements != wantSnap.Engagements {
			t.Errorf("blocks %v: %d engagements, want %d",
				blocks, gotSnap.Engagements, wantSnap.Engagements)
		}
		if gotSnap.Counters != wantSnap.Counters {
			t.Errorf("blocks %v: counters %+v, want %+v", blocks, gotSnap.Counters, wantSnap.Counters)
		}
	}
}
