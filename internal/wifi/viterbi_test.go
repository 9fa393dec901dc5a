package wifi

import (
	"bytes"
	"math/rand"
	"testing"
)

// Differential suite for the packed Viterbi decoder: viterbiScratch.decode
// is pinned against the retained tracebackDecode reference with exact (==)
// comparison of the decoded bits.

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
	coded := ConvEncode(bits, p)
	for i := range coded {
		if rng.Float64() < ber {
			coded[i] ^= 1
		}
	}
	seq, err := depuncture(coded, p, n)
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

// TestButterflySymmetry pins the code property the packed decoder's
// butterfly relies on: flipping the input bit or the oldest state bit flips
// both generator outputs, because g0 = 133₈ and g1 = 171₈ both tap the
// newest and the oldest register bit. So the branches into one butterfly
// emit p, p^3 (from state k) and p^3, p (from state k+32).
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

func viterbiBenchInput(b *testing.B) ([]uint8, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(48))
	n := 4000
	bits := make([]uint8, n)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	coded := ConvEncode(bits, Punct3_4)
	seq, err := depuncture(coded, Punct3_4, n)
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
