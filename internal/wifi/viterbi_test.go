package wifi

import (
	"bytes"
	"math/rand"
	"testing"
)

// Differential suite for the packed Viterbi decoder: viterbiScratch.decode
// is pinned against the retained tracebackDecode reference with exact (==)
// comparison of the decoded bits.

// tracebackDecode runs the reference trellis on the erasure-marked hard stream seq
// with bmLUT rows, out-of-alphabet values clamped to 3. It is the
// reference the packed decoder is pinned against.
func tracebackDecode(seq []uint8, numDataBits int, terminated bool) []uint8 {
	return new(trellis).decode(numDataBits, terminated, func(t int) *[4]int32 {
		return &bmLUT[min(seq[2*t], 3)][min(seq[2*t+1], 3)]
	})
}

// noisySeq encodes n random data bits at puncture p, flips each kept coded
// bit with probability ber and returns the depunctured, erasure-marked
// stream the decoders consume. A terminated frame ends in six zero bits.
func noisySeq(rng *rand.Rand, p Puncture, n int, ber float64, terminated bool) []uint8 {
	bits := make([]uint8, n)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	if terminated {
		for i := max(0, n-6); i < n; i++ {
			bits[i] = 0
		}
	}
	coded := convEncodeInto(nil, bits, p)
	for i := range coded {
		if rng.Float64() < ber {
			coded[i] ^= 1
		}
	}
	seq, err := depunctureInto(nil, coded, p, n, erasure)
	if err != nil {
		panic(err)
	}
	return seq
}

// TestPackedViterbiMatchesReference pins viterbiScratch.decode against
// tracebackDecode on the same depunctured sequences: all three puncture
// rates, terminated and open trellises, channel BERs from 0 to 30%, frame
// lengths up to 12,000 steps (a 1470 B frame at 54 Mbps is ~11.8k bits),
// extra erasures beyond the puncturing pattern's own, and out-of-alphabet
// bytes 3–255. One scratch serves every trial, so reuse across frame
// lengths is covered too.
func TestPackedViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bers := []float64{0, 0.01, 0.03, 0.08, 0.15, 0.30}
	lengths := []int{7, 12, 96, 211, 1000, 12000}
	var vs viterbiScratch
	for _, p := range []Puncture{Punct1_2, Punct2_3, Punct3_4} {
		for _, terminated := range []bool{true, false} {
			for _, ber := range bers {
				for li, n := range lengths {
					seq := noisySeq(rng, p, n, ber, terminated)
					// Odd length slots add extra erasures, even ones
					// out-of-alphabet bytes, on top of the bit flips.
					for e := 0; e < 1+n/64; e++ {
						if li%2 == 1 {
							seq[rng.Intn(len(seq))] = erasure
						} else {
							seq[rng.Intn(len(seq))] = uint8(3 + rng.Intn(253))
						}
					}
					want := tracebackDecode(seq, n, terminated)
					got := make([]uint8, n)
					vs.decode(seq, got, terminated)
					if !bytes.Equal(got, want) {
						t.Fatalf("p=%v terminated=%v ber=%v n=%d: packed decode diverges from reference",
							p, terminated, ber, n)
					}
				}
			}
		}
	}
}

// TestPackedViterbiOutOfAlphabetInput pins the bmLUT clamp row: values
// outside {0, 1, erasure} must cost every branch equally, exactly like the
// reference's "mismatches both outputs" treatment.
func TestPackedViterbiOutOfAlphabetInput(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var vs viterbiScratch
	for trial := 0; trial < 50; trial++ {
		n := 24 + rng.Intn(60)
		seq := make([]uint8, 2*n)
		for i := range seq {
			seq[i] = uint8(rng.Intn(6)) // includes 3, 4, 5: out of alphabet
		}
		want := tracebackDecode(seq, n, false)
		got := make([]uint8, n)
		vs.decode(seq, got, false)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: clamp row diverges from reference", trial)
		}
	}
}

// TestButterflySymmetry pins the code property the butterflies rely on:
// flipping the input bit or the oldest state bit flips both generator
// outputs, because g0 = 133₈ and g1 = 171₈ both tap the newest and the
// oldest register bit. So the branches into one butterfly emit p, p^3
// (from state k) and p^3, p (from state k+32). It also pins the SWAR
// tables against branchPair for all six phases of the rotating layout:
// lane x holds state rol6(x, r), its cost words price the branches from
// its low and high predecessor into its next-state, and its decision bit
// is 8·(x&7)+(x>>3).
func TestButterflySymmetry(t *testing.T) {
	for k := 0; k < numStates/2; k++ {
		p := branchPair[k][0]
		if got := branchPair[k][1]; got != p^3 {
			t.Errorf("branchPair[%d][1] = %d, want %d", k, got, p^3)
		}
		if got := branchPair[k+numStates/2][0]; got != p^3 {
			t.Errorf("branchPair[%d][0] = %d, want %d", k+numStates/2, got, p^3)
		}
		if got := branchPair[k+numStates/2][1]; got != p {
			t.Errorf("branchPair[%d][1] = %d, want %d", k+numStates/2, got, p)
		}
	}
	for r := 0; r < 6; r++ {
		for x := 0; x < numStates; x++ {
			s := rol6(x, r)
			k, in := s&(numStates/2-1), s>>5
			ns := (s<<1 | in) & (numStates - 1)
			if ns != rol6(x, r+1) {
				t.Fatalf("phase %d lane %d: next-state %d does not stay in its lane", r, x, ns)
			}
			// The partner of lane x holds the other predecessor of ns.
			partner := rol6(x^(numStates/2>>r), r)
			if partner != s^numStates/2 {
				t.Fatalf("phase %d lane %d: partner holds state %d, want %d", r, x, partner, s^numStates/2)
			}
			if r >= 3 {
				low := swarSwap[r-3].lowLanes>>(8*(x&7))&1 == 1
				if low != (s < numStates/2) || swarSwap[r-3].sh != uint(8*(numStates/2>>r)) {
					t.Fatalf("phase %d lane %d: swap table disagrees with the layout", r, x)
				}
			}
			for rArB := 0; rArB < 16; rArB++ {
				row := &bmLUT[rArB>>2][rArB&3]
				words := &swarCost[r][rArB]
				lo := int32(words[0][x>>3] >> (8 * (x & 7)) & 0xFF)
				hi := int32(words[1][x>>3] >> (8 * (x & 7)) & 0xFF)
				if lo != row[branchPair[k][in]] || hi != row[branchPair[k|numStates/2][in]] {
					t.Fatalf("phase %d lane %d row %d: costs (%d, %d), want (%d, %d)", r, x, rArB,
						lo, hi, row[branchPair[k][in]], row[branchPair[k|numStates/2][in]])
				}
			}
			if got, want := swarDecBit[r][ns], uint8(8*(x&7)+x>>3); got != want {
				t.Fatalf("phase %d: state %d decision bit %d, want %d", r, ns, got, want)
			}
		}
	}
}

// TestSWARStepMatchesScalarACS drives swarStep directly: random metrics
// (below the lane bound) placed by the rotating layout, every phase and
// every cost row, against a scalar add-compare-select with the reference's
// low-predecessor-first, strict-less rule.
func TestSWARStepMatchesScalarACS(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		var metric [numStates]uint8
		for s := range metric {
			metric[s] = uint8(rng.Intn(97))
			if trial%2 == 0 {
				metric[s] = uint8(rng.Intn(3)) // many ties
			}
		}
		for r := 0; r < 6; r++ {
			var m, nx [8]uint64
			for x := 0; x < numStates; x++ {
				m[x>>3] |= uint64(metric[rol6(x, r)]) << (8 * (x & 7))
			}
			for rArB := 0; rArB < 16; rArB++ {
				dec := swarStep(&m, &nx, r, &swarCost[r][rArB])
				row := &bmLUT[rArB>>2][rArB&3]
				for ns := 0; ns < numStates; ns++ {
					lo, hi := ns>>1, ns>>1|numStates/2
					a := int32(metric[lo]) + row[branchPair[lo][ns&1]]
					b := int32(metric[hi]) + row[branchPair[hi][ns&1]]
					want, took := a, uint64(0)
					if b < a {
						want, took = b, 1
					}
					x := rol6(ns, (12-r-1)%6)
					if got := int32(nx[x>>3] >> (8 * (x & 7)) & 0xFF); got != want {
						t.Fatalf("phase %d row %d state %d: metric %d, want %d", r, rArB, ns, got, want)
					}
					if got := dec >> swarDecBit[r][ns] & 1; got != took {
						t.Fatalf("phase %d row %d state %d: decision %d, want %d", r, rArB, ns, got, took)
					}
				}
			}
		}
	}
}

// TestSWARLaneBound decodes erasure-heavy, out-of-alphabet-heavy and
// noisy (BER 0–50%) frames at every puncture rate and both terminations,
// and checks through viterbiScratch.observe that no metric lane exceeds
// 127 before an add (the SWAR compare needs the top bit of each lane
// free) and that, once all states are reachable, the spread stays within
// the 6·2 = 12 bound. It logs the largest lane and spread seen, and every
// decode must equal tracebackDecode.
func TestSWARLaneBound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var vs viterbiScratch
	var maxLane, maxSpread uint8
	steps := 0
	vs.observe = func(m *[8]uint64) {
		lo, hi := uint8(0xFF), uint8(0)
		for _, w := range m {
			for i := 0; i < 8; i++ {
				b := uint8(w >> (8 * i))
				lo, hi = min(lo, b), max(hi, b)
			}
		}
		if hi > 127 {
			t.Fatalf("lane value %d before an add", hi)
		}
		maxLane = max(maxLane, hi)
		if steps >= 6 {
			if hi-lo > 12 {
				t.Fatalf("spread %d after step %d", hi-lo, steps)
			}
			maxSpread = max(maxSpread, hi-lo)
		}
		steps++
	}
	for _, p := range []Puncture{Punct1_2, Punct2_3, Punct3_4} {
		for _, terminated := range []bool{true, false} {
			for _, mode := range []string{"erasures", "out-of-alphabet", "noisy"} {
				for trial := 0; trial < 12; trial++ {
					n := 1 + rng.Intn(3000)
					ber := 0.0
					if mode == "noisy" {
						ber = float64(trial) / 22 // 0 to 50%
					}
					seq := noisySeq(rng, p, n, ber, terminated)
					for i := range seq {
						switch {
						case mode == "erasures" && rng.Intn(4) != 0:
							seq[i] = erasure
						case mode == "out-of-alphabet" && rng.Intn(2) == 0:
							seq[i] = uint8(3 + rng.Intn(253))
						}
					}
					steps = 0
					got := make([]uint8, n)
					vs.decode(seq, got, terminated)
					if !bytes.Equal(got, tracebackDecode(seq, n, terminated)) {
						t.Fatalf("%s p=%v terminated=%v n=%d: decode diverges from reference", mode, p, terminated, n)
					}
				}
			}
		}
	}
	t.Logf("largest lane before an add: %d (bound 127); largest spread once all states are reachable: %d (bound 12)",
		maxLane, maxSpread)
}

// FuzzViterbi differentially fuzzes the packed decoder: a seeded noisy
// codeword of n steps at puncture punct and berPct% BER, with junk bytes
// (erasures, out-of-alphabet values) overwriting positions spread across
// the stream. The seed corpus lives in testdata/fuzz/FuzzViterbi.
func FuzzViterbi(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, punct uint8, terminated bool, berPct uint8, junk []byte) {
		steps := 1 + int(n)%12000
		p := Puncture(punct % 3)
		ber := float64(berPct%31) / 100
		seq := noisySeq(rand.New(rand.NewSource(seed)), p, steps, ber, terminated)
		for i, b := range junk {
			seq[(i*7919)%len(seq)] = b
		}
		want := tracebackDecode(seq, steps, terminated)
		got := make([]uint8, steps)
		var vs viterbiScratch
		vs.decode(seq, got, terminated)
		if !bytes.Equal(got, want) {
			t.Fatalf("packed decode diverges from reference (n=%d p=%v terminated=%v ber=%v)",
				steps, p, terminated, ber)
		}
	})
}

// viterbiDecode depunctures coded and decodes it on the packed decoder,
// the composition RxFrame runs on a frame's DATA field.
func viterbiDecode(coded []uint8, p Puncture, numDataBits int, terminated bool) ([]uint8, error) {
	seq, err := depunctureInto(nil, coded, p, numDataBits, erasure)
	if err != nil {
		return nil, err
	}
	out := make([]uint8, numDataBits)
	var vs viterbiScratch
	vs.decode(seq, out, terminated)
	return out, nil
}

func viterbiBenchInput(b *testing.B) ([]uint8, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(48))
	n := 4000
	bits := make([]uint8, n)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	coded := convEncodeInto(nil, bits, Punct3_4)
	seq, err := depunctureInto(nil, coded, Punct3_4, n, erasure)
	if err != nil {
		b.Fatal(err)
	}
	return seq, n
}

func BenchmarkViterbiPacked(b *testing.B) {
	seq, n := viterbiBenchInput(b)
	var vs viterbiScratch
	out := make([]uint8, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.decode(seq, out, false)
	}
}

// BenchmarkViterbiNoisy decodes a 4000-bit rate-3/4 frame at 8% channel
// BER. A clean codeword lets every compare-select branch predict
// perfectly; a noisy one is what a jammed victim receiver decodes.
func BenchmarkViterbiNoisy(b *testing.B) {
	const n = 4000
	seq := noisySeq(rand.New(rand.NewSource(48)), Punct3_4, n, 0.08, false)
	var vs viterbiScratch
	out := make([]uint8, n)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.decode(seq, out, false)
	}
}

func BenchmarkViterbiReference(b *testing.B) {
	seq, n := viterbiBenchInput(b)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracebackDecode(seq, n, false)
	}
}
