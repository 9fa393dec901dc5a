package wifi

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsp"
)

func TestSoftLoopbackAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range AllRates {
		psdu := make([]byte, 180)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x33})
		if err != nil {
			t.Fatal(err)
		}
		res, err := DemodulateSoft(tx, 0, len(tx))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%v: soft loopback corrupted PSDU", r)
		}
	}
}

func TestSoftLLRSigns(t *testing.T) {
	// A confidently-received constellation point must produce LLRs whose
	// signs agree with the hard decision, for every constellation.
	rng := rand.New(rand.NewSource(12))
	for _, c := range []Constellation{BPSK, QPSK, QAM16, QAM64} {
		n := c.Bits()
		bits := make([]uint8, n)
		for trial := 0; trial < 20; trial++ {
			for i := range bits {
				bits[i] = uint8(rng.Intn(2))
			}
			p := c.Map(bits)
			llrs := c.DemapSoft(p, nil)
			if len(llrs) != n {
				t.Fatalf("%v: %d LLRs for %d bits", c, len(llrs), n)
			}
			for i, l := range llrs {
				want := bits[i]
				switch {
				case l > 0 && want != 0:
					t.Fatalf("%v bit %d: LLR %d but bit is 1", c, i, l)
				case l < 0 && want != 1:
					t.Fatalf("%v bit %d: LLR %d but bit is 0", c, i, l)
				case l == 0:
					t.Fatalf("%v bit %d: zero LLR on clean point", c, i)
				}
			}
		}
	}
}

func TestSoftBeatsHardUnderBurstJamming(t *testing.T) {
	// A jam burst over a run of data symbols at moderate power: the soft
	// receiver recovers frames the hard receiver loses.
	rng := rand.New(rand.NewSource(13))
	const trials = 30
	hardOK, softOK := 0, 0
	for tr := 0; tr < trials; tr++ {
		psdu := make([]byte, 300)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: Rate24, ScramblerSeed: uint8(tr) + 1})
		if err != nil {
			t.Fatal(err)
		}
		rx := tx.Clone()
		// Burst over 4 symbols starting after the preamble+SIGNAL, at a
		// power where hard decisions are marginal.
		start := 400 + 160
		jam := dsp.NewNoiseSource(0.25, int64(tr))
		for i := start; i < start+4*SymbolLen && i < len(rx); i++ {
			rx[i] += jam.Sample()
		}
		noise := dsp.NewNoiseSource(1e-4, int64(tr)+100)
		noise.AddTo(rx)
		if res, err := Demodulate(rx, 0, 300); err == nil && bytes.Equal(res.PSDU, psdu) {
			hardOK++
		}
		if res, err := DemodulateSoft(rx, 0, 300); err == nil && bytes.Equal(res.PSDU, psdu) {
			softOK++
		}
	}
	if softOK < hardOK {
		t.Errorf("soft receiver (%d/%d) worse than hard (%d/%d) under burst jamming",
			softOK, trials, hardOK, trials)
	}
	if softOK == 0 {
		t.Error("soft receiver recovered nothing; burst too strong for the test's point")
	}
}

func TestViterbiSoftMatchesHardOnCleanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bits := make([]uint8, 96)
	for i := range bits[:90] {
		bits[i] = uint8(rng.Intn(2))
	}
	coded := convEncodeInto(nil, bits, Punct1_2)
	llrs := make([]LLR, len(coded))
	for i, b := range coded {
		if b == 1 {
			llrs[i] = -llrClip
		} else {
			llrs[i] = llrClip
		}
	}
	seq, err := depunctureInto(nil, llrs, Punct1_2, 96, llrErasure)
	if err != nil {
		t.Fatal(err)
	}
	if dec := viterbiDecodeSoft(new(trellis), seq, true); !bytes.Equal(dec, bits) {
		t.Error("soft decode of saturated LLRs differs from input")
	}
}

func TestViterbiSoftShortInput(t *testing.T) {
	if _, err := depunctureInto(nil, []LLR{1, 2}, Punct1_2, 24, llrErasure); err == nil {
		t.Error("insufficient LLRs accepted")
	}
}

// TestSoftTrellisMatchesReference pins the soft decoder to the hard
// reference: a hard stream mapped to LLR +1 (bit 0), −1 (bit 1) and 0
// (erasure) prices every branch exactly as bmLUT does, so
// viterbiDecodeSoft must equal tracebackDecode, ties included. It covers
// every puncture rate, both terminations, channel BERs from 0 to 50% and
// erasure-heavy streams. The soft decoder reuses one trellis across frames
// of every length, as a receiver's codec does, so stale predecessor entries
// would show here.
func TestSoftTrellisMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var soft trellis
	toLLR := map[uint8]LLR{0: 1, 1: -1, erasure: llrErasure}
	for _, p := range []Puncture{Punct1_2, Punct2_3, Punct3_4} {
		for _, terminated := range []bool{true, false} {
			for _, erasureHeavy := range []bool{false, true} {
				for i := 0; i <= 10; i++ {
					ber := float64(i) / 20 // 0 to 50%
					n := 1 + rng.Intn(800)
					seq := noisySeq(rng, p, n, ber, terminated)
					if erasureHeavy {
						for j := range seq {
							if rng.Intn(4) != 0 {
								seq[j] = erasure
							}
						}
					}
					llrs := make([]LLR, len(seq))
					for j, v := range seq {
						llrs[j] = toLLR[v]
					}
					want := tracebackDecode(seq, n, terminated)
					if got := viterbiDecodeSoft(&soft, llrs, terminated); !bytes.Equal(got, want) {
						t.Fatalf("p=%v terminated=%v ber=%v erasure-heavy=%v n=%d: soft trellis diverges from reference",
							p, terminated, ber, erasureHeavy, n)
					}
				}
			}
		}
	}
}

// TestDemodulateSoftHeaderMatchesHard pins the shared receiver front end:
// for every rate, DemodulateSoft and Demodulate report the same LTSIndex,
// Rate and Length, and both reject noise-only input and a frame cut one
// DATA symbol short.
func TestDemodulateSoftHeaderMatchesHard(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, r := range AllRates {
		psdu := make([]byte, 1+rng.Intn(400))
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: uint8(1 + rng.Intn(127))})
		if err != nil {
			t.Fatal(err)
		}
		rx := append(make(dsp.Samples, 37), tx...)
		dsp.NewNoiseSource(1e-3, int64(r)).AddTo(rx)
		hard, err := Demodulate(rx, 0, 300)
		if err != nil {
			t.Fatalf("%v: Demodulate: %v", r, err)
		}
		soft, err := DemodulateSoft(rx, 0, 300)
		if err != nil {
			t.Fatalf("%v: DemodulateSoft: %v", r, err)
		}
		if soft.LTSIndex != hard.LTSIndex || soft.Rate != hard.Rate || soft.Length != hard.Length {
			t.Fatalf("%v: soft header (%d, %v, %d), hard (%d, %v, %d)", r,
				soft.LTSIndex, soft.Rate, soft.Length, hard.LTSIndex, hard.Rate, hard.Length)
		}
		if hard.LTSIndex != 37+ShortPreambleLen+32 || hard.Rate != r || hard.Length != len(psdu) {
			t.Fatalf("%v: header (%d, %v, %d), want (%d, %v, %d)", r,
				hard.LTSIndex, hard.Rate, hard.Length, 37+ShortPreambleLen+32, r, len(psdu))
		}

		short := rx[:len(rx)-SymbolLen]
		if _, err := Demodulate(short, 0, 300); err == nil {
			t.Errorf("%v: Demodulate accepted a frame one symbol short", r)
		}
		if _, err := DemodulateSoft(short, 0, 300); err == nil {
			t.Errorf("%v: DemodulateSoft accepted a frame one symbol short", r)
		}
	}
	noise := make(dsp.Samples, 2000)
	dsp.NewNoiseSource(0.01, 17).AddTo(noise)
	if _, err := Demodulate(noise, 0, len(noise)); err == nil {
		t.Error("Demodulate decoded pure noise")
	}
	if _, err := DemodulateSoft(noise, 0, len(noise)); err == nil {
		t.Error("DemodulateSoft decoded pure noise")
	}
}

// TestReceiversRejectBadHeader drives the shared front end's failures
// through both receivers: an empty search window, and a SIGNAL symbol
// re-encoded with a parity error. A negative window start is clamped.
func TestReceiversRejectBadHeader(t *testing.T) {
	psdu := []byte("shared receiver front end")
	tx, err := Modulate(psdu, TxConfig{Rate: Rate36, ScramblerSeed: 0x21})
	if err != nil {
		t.Fatal(err)
	}
	var sig [24]uint8
	signalFieldInto(&sig, Rate36, len(psdu))
	sig[17] ^= 1 // parity
	coded := convEncodeInto(nil, sig[:], Punct1_2)
	il := make([]uint8, len(coded))
	interleaveInto(il, coded, Rate6)
	pts := make([]complex128, NumDataCarriers)
	mapSymbolBitsInto(pts, il, Rate6)
	bad := tx.Clone()
	var freq [FFTSize]complex128
	assembleSymbolInto(bad[ShortPreambleLen+LongPreambleLen:], &freq, pts, 0)

	for name, demod := range map[string]func([]complex128, int, int) (*RxResult, error){
		"hard": func(x []complex128, from, to int) (*RxResult, error) { return Demodulate(x, from, to) },
		"soft": DemodulateSoft,
	} {
		if _, err := demod(tx, 300, 100); err != ErrSync {
			t.Errorf("%s: empty window gave %v, want ErrSync", name, err)
		}
		if res, err := demod(tx, -50, 300); err != nil || !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%s: negative window start: %v", name, err)
		}
		if _, err := demod(bad, 0, 300); err == nil || !strings.Contains(err.Error(), "parity") {
			t.Errorf("%s: SIGNAL parity error gave %v", name, err)
		}
	}
}
