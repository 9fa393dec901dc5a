package scope

import (
	"math"
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

// BurstIntervals is the reference BurstCounter is tested against: the
// [start, end) intervals of a whole capture where the envelope stays at or
// above level for at least minLen samples, merging gaps of at most maxGap
// samples.
func BurstIntervals(x dsp.Samples, level float64, minLen, maxGap int) [][2]int {
	var raw [][2]int
	start := -1
	for i, v := range x {
		above := math.Hypot(real(v), imag(v)) >= level
		switch {
		case above && start < 0:
			start = i
		case !above && start >= 0:
			raw = append(raw, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		raw = append(raw, [2]int{start, len(x)})
	}
	// Merge close bursts.
	var merged [][2]int
	for _, iv := range raw {
		if n := len(merged); n > 0 && iv[0]-merged[n-1][1] <= maxGap {
			merged[n-1][1] = iv[1]
			continue
		}
		merged = append(merged, iv)
	}
	// Drop short glitches.
	var out [][2]int
	for _, iv := range merged {
		if iv[1]-iv[0] >= minLen {
			out = append(out, iv)
		}
	}
	return out
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

// countInBlocks feeds x to a counter in blocks of the given sizes, cycled.
func countInBlocks(x dsp.Samples, level float64, minLen, maxGap int, sizes []int) int {
	b := NewBurstCounter(level, minLen, maxGap)
	for i := 0; len(x) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(x))
		b.Add(x[:n])
		x = x[n:]
	}
	return b.Count()
}

// TestBurstCounterMatchesIntervals pins the online count against
// BurstIntervals on the concatenation, at every single split point and at
// several block sizes, on the cases where the rule's edges lie: a gap of
// exactly maxGap (merged) and of maxGap+1 (not), a short glitch merged into
// a long burst, a glitch too short on its own, and a burst still open at
// the end.
func TestBurstCounterMatchesIntervals(t *testing.T) {
	const minLen, maxGap = 20, 10
	for _, c := range []struct {
		name   string
		bursts [][2]int
		length int
		want   int
	}{
		{"gap of maxGap merges", [][2]int{{10, 40}, {50, 80}}, 100, 1},
		{"gap of maxGap+1 splits", [][2]int{{10, 40}, {51, 80}}, 100, 2},
		{"glitch merged into a burst", [][2]int{{10, 15}, {20, 60}, {65, 68}}, 100, 1},
		{"lone glitch dropped", [][2]int{{10, 40}, {70, 75}}, 100, 1},
		{"glitches merge into a burst", [][2]int{{10, 18}, {25, 33}}, 50, 1},
		{"open at the end", [][2]int{{10, 40}, {85, 120}}, 120, 2},
		{"short and open at the end", [][2]int{{10, 40}, {110, 120}}, 120, 1},
		{"merged into the end", [][2]int{{10, 40}, {45, 120}}, 120, 1},
		{"silence", nil, 60, 0},
	} {
		x := burstWave(c.bursts, c.length, 1)
		if got := len(BurstIntervals(x, 0.5, minLen, maxGap)); got != c.want {
			t.Fatalf("%s: BurstIntervals found %d bursts, want %d", c.name, got, c.want)
		}
		for _, sizes := range [][]int{{len(x)}, {1}, {7}, {64}, {3, 11, 2}} {
			if got := countInBlocks(x, 0.5, minLen, maxGap, sizes); got != c.want {
				t.Errorf("%s: blocks %v: count %d, want %d", c.name, sizes, got, c.want)
			}
		}
		for split := 1; split < len(x); split++ {
			if got := countInBlocks(x, 0.5, minLen, maxGap, []int{split, len(x)}); got != c.want {
				t.Errorf("%s: split at %d: count %d, want %d", c.name, split, got, c.want)
			}
		}
	}
}

// TestBurstCounterCountIsAPeek checks that Count does not close the run it
// ends: a burst that continues in the next block stays one burst.
func TestBurstCounterCountIsAPeek(t *testing.T) {
	b := NewBurstCounter(0.5, 20, 10)
	b.Add(burstWave([][2]int{{5, 30}}, 30, 1))
	if n := b.Count(); n != 1 {
		t.Fatalf("count %d after the first block, want 1", n)
	}
	b.Add(burstWave([][2]int{{0, 10}}, 15, 1))
	if n := b.Count(); n != 1 {
		t.Errorf("count %d after the burst continued, want 1", n)
	}
}
