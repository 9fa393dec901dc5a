package core

import (
	"testing"

	"repro/internal/telemetry"
)

// Allocation guards for the block datapath: after scratch warm-up,
// ProcessBlock must run allocation-free in steady state — with no recorder
// and with a live journal attached.

func TestProcessBlockZeroAllocNop(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	input := parityInput()
	tx := make([]complex128, len(input))
	c.ProcessBlock(input, tx) // warm up scratch planes

	if avg := testing.AllocsPerRun(20, func() {
		c.ProcessBlock(input, tx)
	}); avg != 0 {
		t.Fatalf("ProcessBlock (no recorder) allocates %.1f per call in steady state", avg)
	}
}

func TestProcessBlockZeroAllocLive(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	// The journal's storage grows until it holds its depth (see
	// telemetry.Journal): the warm-up fills a small ring, so the measured
	// calls see the steady state.
	const depth = 64
	live := telemetry.NewLive(depth)
	c.SetRecorder(live)
	input := parityInput() // engagement-bearing: bursts open and close
	tx := make([]complex128, len(input))
	for i := 0; live.Snapshot().Events < depth; i++ {
		if i == 100 {
			t.Fatalf("100 warm-up blocks journaled %d events, want %d", live.Snapshot().Events, depth)
		}
		c.ProcessBlock(input, tx)
	}

	if avg := testing.AllocsPerRun(20, func() {
		c.ProcessBlock(input, tx)
	}); avg != 0 {
		t.Fatalf("ProcessBlock (live recorder) allocates %.1f per call in steady state", avg)
	}
}
