//go:build !race

// The byte pins are kept out of -race builds: the race detector's shadow
// memory and instrumented allocations change what a run allocates.

package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/iperf"
)

// allocated returns the bytes f allocates, starting from a collected heap
// so that nothing a GC could take away (a sync.Pool, say) is left warm.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJamSweepPointBytes pins what one warm point of the Fig. 10 reactive
// curve allocates, the benchmark's link-reactive item: the jammer's radio,
// its resamplers and the exchange buffers are carried from run to run in a
// free list a GC does not empty, so a warm point allocates only its
// per-run state, right after two collections too. Before the stack was
// carried a point allocated ~3.4 MB, and ~15 MB after a collection.
func TestJamSweepPointBytes(t *testing.T) {
	const limit = 500_000
	for _, att := range []float64{0, 20, 40} {
		cfg := DefaultJamSweep(iperf.JamReactive, 100*time.Microsecond)
		cfg.Attenuations = []float64{att}
		cfg.Packets = 40
		run := func() {
			if _, err := RunJamSweep(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		warm := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		if b := ms.TotalAlloc - warm; b > limit {
			t.Errorf("%v dB: a warm point allocated %d B, want ≤ %d", att, b, limit)
		}
		if b := allocated(run); b > limit {
			t.Errorf("%v dB: a warm point allocated %d B after two GCs, want ≤ %d", att, b, limit)
		}
	}
}

// TestFig12Bytes pins Fig. 12's allocation at 20 frames to a twentieth of
// the 177,394,816 B it took while the jam TX was kept whole for the burst
// count and every 5 ms frame was rendered and faded in fresh buffers.
func TestFig12Bytes(t *testing.T) {
	const limit = 177_394_816 / 20
	b := allocated(func() {
		if _, err := Fig12WiMAX(20, 5); err != nil {
			t.Fatal(err)
		}
	})
	if b > limit {
		t.Errorf("Fig12WiMAX(20, 5) allocated %d B, want ≤ %d", b, limit)
	}
}
