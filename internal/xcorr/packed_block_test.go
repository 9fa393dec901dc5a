package xcorr

import (
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// Differential tests for the block entry point: ProcessPacked consumes
// pre-packed sign bits and must produce trigger-level bitmaps and
// end-of-block state bit-identical to calling Process once per sample —
// including partial last words, the warm-up holdoff straddling a word
// boundary, and the register-bus-only −4 coefficients that populate the
// weight-4 magnitude plane and keep every word in the Go loop. Each test runs
// once per loop this machine has for template banks (withLoops).

// hasKernel is popcntKernel as package init set it, before any test
// changes it.
var hasKernel = popcntKernel

// packedLoops lists the popcntKernel values that select each ProcessPacked
// loop this machine has: the Go loop, and the assembly loop where CPUID
// selected it. Callers restore popcntKernel to hasKernel when done.
func packedLoops() []bool {
	if hasKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

// loopName names the loop a popcntKernel value selects.
func loopName(asm bool) string {
	if asm {
		return "asm"
	}
	return "go"
}

// withLoops runs f once per ProcessPacked loop this machine has.
func withLoops(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() { popcntKernel = hasKernel }()
	for _, asm := range packedLoops() {
		popcntKernel = asm
		t.Run(loopName(asm), f)
	}
}

// packSigns packs a sample stream's sign bits into the SoA word layout that
// fixed.QuantizeFused produces.
func packSigns(samples []fixed.IQ) (signI, signQ []uint64) {
	words := (len(samples) + 63) / 64
	signI = make([]uint64, words)
	signQ = make([]uint64, words)
	for n, s := range samples {
		if s.I < 0 {
			signI[n/64] |= 1 << (n % 64)
		}
		if s.Q < 0 {
			signQ[n/64] |= 1 << (n % 64)
		}
	}
	return signI, signQ
}

// checkPackedBlocks streams the samples through a per-sample reference
// correlator and through a block correlator chopped at blockLen, comparing
// the per-sample trigger decisions and the carried state after every block.
func checkPackedBlocks(t *testing.T, i, q []fixed.Coeff3, threshold uint32, samples []fixed.IQ, blockLen int) {
	t.Helper()
	blk, ref := New(), New()
	if err := blk.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	blk.SetThreshold(threshold)
	ref.SetThreshold(threshold)

	refLevel := make([]bool, len(samples))
	for n, s := range samples {
		_, trig := ref.Process(s)
		refLevel[n] = trig
	}

	for pos := 0; pos < len(samples); pos += blockLen {
		end := pos + blockLen
		if end > len(samples) {
			end = len(samples)
		}
		chunk := samples[pos:end]
		signI, signQ := packSigns(chunk)
		level := make([]uint64, (len(chunk)+63)/64)
		blk.ProcessPacked(signI, signQ, len(chunk), level)
		for k := range chunk {
			got := level[k/64]>>(k%64)&1 != 0
			if got != refLevel[pos+k] {
				t.Fatalf("blockLen %d: level diverges at sample %d: packed %v vs per-sample %v",
					blockLen, pos+k, got, refLevel[pos+k])
			}
		}
	}
	if blk.signI != ref.signI || blk.signQ != ref.signQ {
		t.Fatalf("blockLen %d: carried sign history diverges: (%x,%x) vs (%x,%x)",
			blockLen, blk.signI, blk.signQ, ref.signI, ref.signQ)
	}
}

func TestProcessPackedBoundaryLengths(t *testing.T) {
	withLoops(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(0xB10C))
		stream := make([]fixed.IQ, 4*Length+5)
		for n := range stream {
			stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
		}
		i, q := randBanks(rng)
		for _, blockLen := range []int{1, 63, 64, 65, 128, 129, len(stream)} {
			checkPackedBlocks(t, i, q, uint32(rng.Intn(MaxMetric/4)), stream, blockLen)
		}
	})
}

func TestProcessPackedTemplateBanks(t *testing.T) {
	// Banks in [−3, 3] leave the weight-4 plane empty, and their whole warm
	// words run in assembly where the CPU has POPCNT. Threshold 0
	// fires on every warm sample; the low random thresholds cross often.
	withLoops(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(0x7E3B))
		stream := make([]fixed.IQ, 9*Length+5)
		for trial := 0; trial < 20; trial++ {
			for n := range stream {
				stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
			}
			i, q := randTemplateBanks(rng)
			threshold := uint32(rng.Intn(MaxMetric / 16))
			if trial == 0 {
				threshold = 0
			}
			for _, blockLen := range []int{1, 64, 65, 128, 200, len(stream)} {
				checkPackedBlocks(t, i, q, threshold, stream, blockLen)
			}
		}
	})
}

func TestProcessPackedThreePlaneBanks(t *testing.T) {
	// All-(−4) banks populate mag[2], which template-derived coefficients
	// (|c| ≤ 3) never do, so every word runs in the Go loop.
	allMin := make([]fixed.Coeff3, Length)
	for k := range allMin {
		allMin[k] = fixed.Coeff3Min
	}
	rng := rand.New(rand.NewSource(0x3147))
	stream := make([]fixed.IQ, 3*Length)
	for n := range stream {
		stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
	}
	withLoops(t, func(t *testing.T) {
		for _, blockLen := range []int{1, 63, 64, 65, len(stream)} {
			checkPackedBlocks(t, allMin, allMin, 1000, stream, blockLen)
		}
	})
}

func TestProcessPackedWarmupAcrossBlocks(t *testing.T) {
	// Threshold 0 fires on every warm sample, so any off-by-one in how the
	// cold loop hands over to the hot loop mid-word shows up immediately.
	rng := rand.New(rand.NewSource(0xC01D))
	i, q := randBanks(rng)
	stream := make([]fixed.IQ, 2*Length+17)
	for n := range stream {
		stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
	}
	withLoops(t, func(t *testing.T) {
		for _, blockLen := range []int{1, 3, 63, 64, 65} {
			checkPackedBlocks(t, i, q, 0, stream, blockLen)
		}
	})
}

func TestProcessPackedResumesPerSample(t *testing.T) {
	// A block call followed by per-sample calls must behave as one
	// uninterrupted stream: the packed path has to leave the rotating
	// histories exactly where the scalar path would.
	rng := rand.New(rand.NewSource(0x5EAD))
	i, q := randBanks(rng)
	blk, ref := New(), New()
	if err := blk.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	thr := uint32(rng.Intn(MaxMetric / 8))
	blk.SetThreshold(thr)
	ref.SetThreshold(thr)

	head := make([]fixed.IQ, Length+29)
	for n := range head {
		head[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
	}
	signI, signQ := packSigns(head)
	level := make([]uint64, (len(head)+63)/64)
	blk.ProcessPacked(signI, signQ, len(head), level)
	for _, s := range head {
		ref.Process(s)
	}
	for n := 0; n < 2*Length; n++ {
		s := fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
		mb, tb := blk.Process(s)
		mr, tr := ref.Process(s)
		if mb != mr || tb != tr {
			t.Fatalf("post-block sample %d: (%d,%v) != (%d,%v)", n, mb, tb, mr, tr)
		}
	}
}
