package scope

import (
	"testing"

	"repro/internal/dsp"
)

func burstWave(bursts [][2]int, length int, amp float64) dsp.Samples {
	x := make(dsp.Samples, length)
	for _, b := range bursts {
		for i := b[0]; i < b[1] && i < length; i++ {
			x[i] = complex(amp, 0)
		}
	}
	return x
}

func TestEnvelope(t *testing.T) {
	x := burstWave([][2]int{{10, 20}}, 40, 2.0)
	env := Envelope(x, 10)
	if len(env) != 4 {
		t.Fatalf("envelope length %d", len(env))
	}
	if env[0] != 0 || env[1] != 2 || env[2] != 0 {
		t.Errorf("envelope %v", env)
	}
	// Degenerate step.
	if n := len(Envelope(x, 0)); n != 40 {
		t.Errorf("step<1 should clamp to 1, got %d points", n)
	}
}

func TestBurstIntervals(t *testing.T) {
	x := burstWave([][2]int{{100, 200}, {205, 300}, {500, 510}}, 700, 1.0)
	// maxGap 10 merges the first two; minLen 20 drops the 10-sample glitch.
	got := BurstIntervals(x, 0.5, 20, 10)
	if len(got) != 1 || got[0][0] != 100 || got[0][1] != 300 {
		t.Errorf("BurstIntervals = %v", got)
	}
	// No merging with maxGap 2: two qualifying bursts.
	got = BurstIntervals(x, 0.5, 20, 2)
	if len(got) != 2 {
		t.Errorf("without merge: %v", got)
	}
}

func TestBurstIntervalOpenAtEnd(t *testing.T) {
	x := burstWave([][2]int{{90, 100}}, 100, 1.0)
	got := BurstIntervals(x, 0.5, 5, 0)
	if len(got) != 1 || got[0][1] != 100 {
		t.Errorf("open-ended burst: %v", got)
	}
}
