package channel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dsp"
)

func TestMultipathUnitPowerTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := NewRayleighMultipath(rng, 3, 0.5)
		taps := m.taps
		if len(taps) != 3 {
			t.Fatalf("taps %d", len(taps))
		}
		var p float64
		for _, tp := range taps {
			p += real(tp)*real(tp) + imag(tp)*imag(tp)
		}
		if math.Abs(p-1) > 1e-9 {
			t.Fatalf("tap power %v, want 1", p)
		}
	}
	// Degenerate tap count clamps to 1.
	m := NewRayleighMultipath(rng, 0, 0.5)
	if len(m.taps) != 1 {
		t.Error("zero taps should clamp to 1")
	}
}

func TestMultipathApplyConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewRayleighMultipath(rng, 2, 1)
	taps := m.taps
	// In place: y[1] reads x[0], which y[0] overwrites.
	y := dsp.Samples{1, 0, 0, 2}
	m.Apply(y)
	// y[0] = taps[0]·x[0]; y[1] = taps[1]·x[0]; y[3] = taps[0]·x[3] + taps[1]·x[2].
	if cdist(y[0], taps[0]) > 1e-12 || cdist(y[1], taps[1]) > 1e-12 {
		t.Errorf("impulse response wrong: %v vs %v", y[:2], taps)
	}
	if cdist(y[3], 2*taps[0]) > 1e-12 {
		t.Errorf("y[3] = %v, want %v", y[3], 2*taps[0])
	}
}

func TestMultipathPreservesAveragePower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := dsp.NewNoiseSource(1, 8)
	x := n.Block(50000)
	var acc float64
	const trials = 20
	for i := 0; i < trials; i++ {
		m := NewRayleighMultipath(rng, 3, 0.5)
		y := slices.Clone(x)
		m.Apply(y)
		acc += y.Power()
	}
	if avg := acc / trials; math.Abs(avg-1) > 0.15 {
		t.Errorf("average faded power %v, want ~1", avg)
	}
}

func cdist(a, b complex128) float64 {
	return math.Hypot(real(a)-real(b), imag(a)-imag(b))
}
