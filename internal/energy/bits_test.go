package energy

import (
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// Differential tests for the SoA block entry point: ProcessBits consumes
// int16 I/Q planes and must pack trigger-level bitmaps bit-identical to
// calling Process once per sample, across partial words, the comparison
// pipeline fill, and every threshold enable combination — and must leave the
// differentiator state positioned so per-sample processing can resume.

func splitPlanes(samples []fixed.IQ) (iPlane, qPlane []int16) {
	iPlane = make([]int16, len(samples))
	qPlane = make([]int16, len(samples))
	for n, s := range samples {
		iPlane[n] = s.I
		qPlane[n] = s.Q
	}
	return iPlane, qPlane
}

func configure(t *testing.T, d *Differentiator, highDB, lowDB float64) {
	t.Helper()
	if highDB > 0 {
		if err := d.SetHighThresholdDB(highDB); err != nil {
			t.Fatal(err)
		}
	}
	if lowDB > 0 {
		if err := d.SetLowThresholdDB(lowDB); err != nil {
			t.Fatal(err)
		}
	}
}

// burstStream yields quiet noise with loud spans so both the high and low
// comparators actually fire.
func burstStream(rng *rand.Rand, n int) []fixed.IQ {
	out := make([]fixed.IQ, n)
	for k := range out {
		if k/150%2 == 1 {
			out[k] = fixed.IQ{I: int16(20000 + rng.Intn(8000)), Q: int16(-20000 - rng.Intn(8000))}
		} else {
			out[k] = fixed.IQ{I: int16(rng.Intn(64) - 32), Q: int16(rng.Intn(64) - 32)}
		}
	}
	return out
}

func checkBits(t *testing.T, highDB, lowDB float64, samples []fixed.IQ, blockLen int) {
	t.Helper()
	blk, ref := New(), New()
	configure(t, blk, highDB, lowDB)
	configure(t, ref, highDB, lowDB)

	refHigh := make([]bool, len(samples))
	refLow := make([]bool, len(samples))
	for n, s := range samples {
		refHigh[n], refLow[n] = ref.Process(s)
	}

	for pos := 0; pos < len(samples); pos += blockLen {
		end := pos + blockLen
		if end > len(samples) {
			end = len(samples)
		}
		chunk := samples[pos:end]
		iPlane, qPlane := splitPlanes(chunk)
		words := (len(chunk) + 63) / 64
		high := make([]uint64, words)
		low := make([]uint64, words)
		blk.ProcessBits(iPlane, qPlane, high, low)
		for k := range chunk {
			gotH := high[k/64]>>(k%64)&1 != 0
			gotL := low[k/64]>>(k%64)&1 != 0
			if gotH != refHigh[pos+k] || gotL != refLow[pos+k] {
				t.Fatalf("blockLen %d (hi %v, lo %v): sample %d: bits (%v,%v) != per-sample (%v,%v)",
					blockLen, highDB, lowDB, pos+k, gotH, gotL, refHigh[pos+k], refLow[pos+k])
			}
		}
	}
	if blk.sum != ref.sum {
		t.Fatalf("blockLen %d: end sum %d != per-sample %d", blockLen, blk.sum, ref.sum)
	}
}

func TestProcessBitsBoundaryLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE4E6))
	samples := burstStream(rng, 900)
	for _, blockLen := range []int{1, 63, 64, 65, 127, 128, 129, len(samples)} {
		checkBits(t, 10, 10, samples, blockLen)
	}
}

func TestProcessBitsThresholdCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7E57))
	samples := burstStream(rng, 600)
	for _, cfg := range []struct{ hi, lo float64 }{
		{10, 0}, {0, 10}, {3, 30}, {0, 0},
	} {
		checkBits(t, cfg.hi, cfg.lo, samples, 64)
		checkBits(t, cfg.hi, cfg.lo, samples, 65)
	}
}

func TestProcessBitsResumesPerSample(t *testing.T) {
	// Block consumption mid-pipeline-fill, then per-sample processing: the
	// rings and warm-up counter must carry over exactly.
	rng := rand.New(rand.NewSource(0x9E5A))
	samples := burstStream(rng, 500)
	blk, ref := New(), New()
	configure(t, blk, 6, 6)
	configure(t, ref, 6, 6)

	head := samples[:71] // inside the 96-sample fill at an odd offset
	iPlane, qPlane := splitPlanes(head)
	high := make([]uint64, 2)
	low := make([]uint64, 2)
	blk.ProcessBits(iPlane, qPlane, high, low)
	for _, s := range head {
		ref.Process(s)
	}
	for n, s := range samples[71:] {
		bh, bl := blk.Process(s)
		rh, rl := ref.Process(s)
		if bh != rh || bl != rl {
			t.Fatalf("post-block sample %d: (%v,%v) != (%v,%v)", n, bh, bl, rh, rl)
		}
	}
}
