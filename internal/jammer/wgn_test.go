package jammer

import (
	"math"
	"testing"
)

// Differential, fuzz and statistics tests for the block WGN generator:
// fill must reproduce the per-sample reference sample() bit for bit.

// checkFill runs fill over n samples from seed s and compares every rail's
// bit pattern (so signed zeros count), the nonzero count and the final
// shift-register state against per-sample draws through sample().
func checkFill(t *testing.T, s uint32, n int, gain float64) {
	t.Helper()
	var blk, ref lfsrGaussian
	blk.seed(s)
	ref.seed(s)
	tx := make([]complex128, n)
	got := blk.fill(tx, gain)

	g := complex(gain, 0)
	want := 0
	for k := range tx {
		out := g * ref.sample()
		if out != 0 {
			want++
		}
		if math.Float64bits(real(tx[k])) != math.Float64bits(real(out)) ||
			math.Float64bits(imag(tx[k])) != math.Float64bits(imag(out)) {
			t.Fatalf("seed %#x n %d gain %v: sample %d = %v, reference %v", s, n, gain, k, tx[k], out)
		}
	}
	if got != want {
		t.Fatalf("seed %#x n %d gain %v: nonzero count %d, reference %d", s, n, gain, got, want)
	}
	if gain == 0 && got != 0 {
		t.Fatalf("seed %#x n %d: gain 0 reports %d jam samples, want 0", s, n, got)
	}
	if blk.reg != ref.reg {
		t.Fatalf("seed %#x n %d gain %v: final state %#x, reference %#x", s, n, gain, blk.reg, ref.reg)
	}
}

func TestWGNFillMatchesSample(t *testing.T) {
	// Seed 0 exercises the 0→1 escape from the absorbing state.
	for _, s := range []uint32{0, 0xACE1, 0xFFFFFFFF} {
		for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 2500, 4099} {
			for _, gain := range []float64{1, 0.8, -0.3, 0} {
				checkFill(t, s, n, gain)
			}
		}
	}
}

// FuzzWGNFill's seed corpus lives in testdata/fuzz/FuzzWGNFill.
func FuzzWGNFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint32, n uint16, gain float64) {
		checkFill(t, seed, int(n%8192), gain)
	})
}

func TestWGNUnitPower(t *testing.T) {
	// The package doc promises unit average power: each rail's variance is
	// 1/2 (12-uniform CLT sum scaled by 1/√2).
	var l lfsrGaussian
	l.seed(0xACE1)
	const n = 1 << 18
	tx := make([]complex128, n)
	l.fill(tx, 1)
	var sumI, sumQ, sqI, sqQ float64
	for _, s := range tx {
		i, q := real(s), imag(s)
		sumI += i
		sumQ += q
		sqI += i * i
		sqQ += q * q
	}
	power := (sqI + sqQ) / n
	varI := sqI/n - (sumI/n)*(sumI/n)
	varQ := sqQ/n - (sumQ/n)*(sumQ/n)
	if math.Abs(power-1) > 0.02 {
		t.Errorf("E|x|² = %v, want 1 ± 2%%", power)
	}
	for _, v := range []float64{varI, varQ} {
		if math.Abs(v-0.5) > 0.01 {
			t.Errorf("rail variance = %v, want 0.5 ± 2%%", v)
		}
	}
}
