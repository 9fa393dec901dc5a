package xcorr

import (
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// Differential tests: the packed popcount kernel (Correlator) must produce
// the identical (metric, trigger) pair as the scalar multiply-accumulate
// specification (Reference) for every coefficient bank and sample stream,
// including the warm < Length holdoff while the delay line fills, after
// Reset, and across mid-stream coefficient swaps. Every stream also runs
// through ProcessPacked on each of its loops, whose trigger levels must be
// the reference's.

// randBanks draws two coefficient banks spanning the full 3-bit signed
// range [-4, 3].
func randBanks(rng *rand.Rand) (i, q []fixed.Coeff3) {
	i = make([]fixed.Coeff3, Length)
	q = make([]fixed.Coeff3, Length)
	for k := range i {
		i[k] = fixed.Coeff3(rng.Intn(8) - 4)
		q[k] = fixed.Coeff3(rng.Intn(8) - 4)
	}
	return i, q
}

// randTemplateBanks draws two banks in [-3, 3], the range
// CoefficientsFromTemplate produces: the weight-4 magnitude plane stays
// empty, so ProcessPacked runs whole warm words in assembly where the CPU
// has POPCNT.
func randTemplateBanks(rng *rand.Rand) (i, q []fixed.Coeff3) {
	i = make([]fixed.Coeff3, Length)
	q = make([]fixed.Coeff3, Length)
	for k := range i {
		i[k] = fixed.Coeff3(rng.Intn(7) - 3)
		q[k] = fixed.Coeff3(rng.Intn(7) - 3)
	}
	return i, q
}

// pair returns a packed/reference pair loaded with the same bank and
// threshold.
func pair(t *testing.T, i, q []fixed.Coeff3, threshold uint32) (*Correlator, *Reference) {
	t.Helper()
	p, r := New(), NewReference()
	if err := p.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	if err := r.SetCoefficients(i, q); err != nil {
		t.Fatal(err)
	}
	p.SetThreshold(threshold)
	r.SetThreshold(threshold)
	return p, r
}

func checkStream(t *testing.T, p *Correlator, r *Reference, samples []fixed.IQ, label string) {
	t.Helper()
	start := *p
	trig := make([]bool, len(samples))
	for n, s := range samples {
		mp, tp := p.Process(s)
		mr, tr := r.Process(s)
		if mp != mr || tp != tr {
			t.Fatalf("%s: sample %d (%d,%d): packed (metric %d, trigger %v) != reference (metric %d, trigger %v)",
				label, n, s.I, s.Q, mp, tp, mr, tr)
		}
		trig[n] = tr
	}
	checkBlockLoops(t, start, *p, samples, trig, label)
}

// checkBlockLoops replays samples through a copy of the correlator state
// start on each ProcessPacked loop this machine has, as a block of one word
// and a block of the rest (so a cold start warms up in the first and the
// second runs warm), and requires the reference triggers trig and the end
// state of the per-sample correlator.
func checkBlockLoops(t *testing.T, start, end Correlator, samples []fixed.IQ, trig []bool, label string) {
	t.Helper()
	signI, signQ := packSigns(samples)
	level := make([]uint64, len(signI))
	defer func() { popcntKernel = hasKernel }()
	for _, popcntKernel = range packedLoops() {
		blk := start
		head := min(Length, len(samples))
		blk.ProcessPacked(signI, signQ, head, level)
		if rest := len(samples) - head; rest > 0 {
			blk.ProcessPacked(signI[1:], signQ[1:], rest, level[1:])
		}
		for n, want := range trig {
			if got := level[n/64]>>(n%64)&1 != 0; got != want {
				t.Fatalf("%s: ProcessPacked (popcntKernel %v) level at sample %d is %v, reference trigger %v",
					label, popcntKernel, n, got, want)
			}
		}
		if blk != end {
			t.Fatalf("%s: ProcessPacked (popcntKernel %v) end state %+v, per-sample %+v",
				label, popcntKernel, blk, end)
		}
	}
}

func TestPackedMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	for trial := 0; trial < 100; trial++ {
		i, q := randBanks(rng)
		// Low thresholds exercise the trigger comparator (and the warm-up
		// holdoff: a threshold of 0 would fire on every post-warm sample).
		p, r := pair(t, i, q, uint32(rng.Intn(MaxMetric/4)))
		stream := make([]fixed.IQ, 3*Length)
		for n := range stream {
			stream[n] = fixed.IQ{
				I: int16(rng.Intn(1 << 16)),
				Q: int16(rng.Intn(1 << 16)),
			}
		}
		checkStream(t, p, r, stream, "random")
	}
}

func TestPackedMatchesReferenceTemplateBanks(t *testing.T) {
	// Banks in [−3, 3], as CoefficientsFromTemplate makes them, leave the
	// weight-4 plane empty; the random test's banks almost always carry a −4.
	rng := rand.New(rand.NewSource(0x7E4B))
	for trial := 0; trial < 100; trial++ {
		i, q := randTemplateBanks(rng)
		p, r := pair(t, i, q, uint32(rng.Intn(MaxMetric/16)))
		stream := make([]fixed.IQ, 5*Length+9)
		for n := range stream {
			stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
		}
		checkStream(t, p, r, stream, "template")
	}
}

func TestPackedMatchesReferenceWarmupEdge(t *testing.T) {
	// Threshold 0 means the comparator would fire on every sample; only the
	// warm < Length holdoff keeps it quiet, so any off-by-one between the
	// two implementations shows up as a trigger mismatch in the first 64
	// samples.
	rng := rand.New(rand.NewSource(0xED6E))
	i, q := randBanks(rng)
	p, r := pair(t, i, q, 0)
	stream := make([]fixed.IQ, 2*Length)
	for n := range stream {
		stream[n] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
	}
	checkStream(t, p, r, stream, "warmup")
}

func TestPackedMatchesReferenceExtremes(t *testing.T) {
	// Saturated, zero and mixed-sign samples with full-range coefficient
	// banks; includes the int16 minimum, whose sign bit must slice to -1.
	extremes := []fixed.IQ{
		{I: 32767, Q: 32767}, {I: -32768, Q: -32768},
		{I: 0, Q: 0}, {I: -1, Q: 1}, {I: 1, Q: -1},
		{I: -32768, Q: 0}, {I: 0, Q: -32768}, {I: 32767, Q: -32768},
	}
	banks := [][]fixed.Coeff3{
		make([]fixed.Coeff3, Length), // all zero
		nil, nil,
	}
	allMin := make([]fixed.Coeff3, Length)
	allMax := make([]fixed.Coeff3, Length)
	for k := range allMin {
		allMin[k] = fixed.Coeff3Min
		allMax[k] = fixed.Coeff3Max
	}
	banks[1], banks[2] = allMin, allMax
	for _, iBank := range banks {
		for _, qBank := range banks {
			p, r := pair(t, iBank, qBank, 1)
			stream := make([]fixed.IQ, 0, 3*Length)
			for len(stream) < 3*Length {
				stream = append(stream, extremes...)
			}
			checkStream(t, p, r, stream, "extremes")
		}
	}
}

func TestPackedMatchesReferenceResetAndSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	i1, q1 := randBanks(rng)
	i2, q2 := randBanks(rng)
	p, r := pair(t, i1, q1, uint32(rng.Intn(MaxMetric/8)))
	stream := func(n int) []fixed.IQ {
		s := make([]fixed.IQ, n)
		for k := range s {
			s[k] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
		}
		return s
	}
	checkStream(t, p, r, stream(Length+7), "pre-swap")
	// Swap coefficients mid-stream: history must be preserved by both.
	if err := p.SetCoefficients(i2, q2); err != nil {
		t.Fatal(err)
	}
	if err := r.SetCoefficients(i2, q2); err != nil {
		t.Fatal(err)
	}
	checkStream(t, p, r, stream(Length), "post-swap")
	// Reset both: the warm-up holdoff must restart identically.
	p.Reset()
	r.Reset()
	checkStream(t, p, r, stream(2*Length), "post-reset")
}

// FuzzPackedVsReference drives both implementations from one fuzzed byte
// string: the first 128 bytes select the two coefficient banks, the next 4
// the threshold, the next 2 a block split, and the remainder becomes the
// I/Q sample stream. Process runs sample by sample against Reference; then,
// on each ProcessPacked loop, the stream's sign bits run from the same
// start state as two blocks split at the fuzzed sample index (modulo the
// stream length plus one), whose trigger bits must be the reference's and
// whose end state must be Process's. Run with
//
//	go test -fuzz=FuzzPackedVsReference ./internal/xcorr
//
// to search for divergence beyond the seeded corpus.
func FuzzPackedVsReference(f *testing.F) {
	seed := make([]byte, 128+4+2+6*4)
	for k := range seed {
		seed[k] = byte(k * 37)
	}
	f.Add(seed)
	f.Add(make([]byte, 128+4+2)) // zero banks, zero threshold, empty stream
	long := make([]byte, 128+4+2+4*(2*Length+5))
	for k := range long {
		long[k] = byte(255 - k%251)
	}
	f.Add(long)
	// Template-range banks ([−3, 3]), a low threshold and whole warm words
	// after a split off the word grid: the assembly loop's input.
	tpl := make([]byte, 128+4+2+4*(3*Length+9))
	for k := range tpl {
		tpl[k] = byte(1 + k*k%7)
		if k >= 134 {
			tpl[k] = byte(k * 97 % 251)
		}
	}
	tpl[128], tpl[129], tpl[130], tpl[131] = 0, 1, 0, 0
	tpl[132], tpl[133] = 70, 0
	f.Add(tpl)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 128+4+2 {
			return
		}
		i := make([]fixed.Coeff3, Length)
		q := make([]fixed.Coeff3, Length)
		for k := 0; k < Length; k++ {
			i[k] = fixed.Coeff3(int(data[k]%8) - 4)
			q[k] = fixed.Coeff3(int(data[Length+k]%8) - 4)
		}
		threshold := uint32(data[128]) | uint32(data[129])<<8 |
			uint32(data[130])<<16 | uint32(data[131])<<24
		p, r := pair(t, i, q, threshold)
		rest := data[134:]
		samples := make([]fixed.IQ, len(rest)/4)
		for n := range samples {
			samples[n] = fixed.IQ{
				I: int16(uint16(rest[4*n]) | uint16(rest[4*n+1])<<8),
				Q: int16(uint16(rest[4*n+2]) | uint16(rest[4*n+3])<<8),
			}
		}
		split := (int(data[132]) | int(data[133])<<8) % (len(samples) + 1)

		start := *p
		trig := make([]bool, len(samples))
		for n, s := range samples {
			mp, tp := p.Process(s)
			mr, tr := r.Process(s)
			if mp != mr || tp != tr {
				t.Fatalf("sample %d (%d,%d): packed (metric %d, trigger %v) != reference (metric %d, trigger %v)",
					n, s.I, s.Q, mp, tp, mr, tr)
			}
			trig[n] = tr
		}
		defer func() { popcntKernel = hasKernel }()
		for _, popcntKernel = range packedLoops() {
			blk := start
			for _, b := range [][2]int{{0, split}, {split, len(samples)}} {
				signI, signQ := packSigns(samples[b[0]:b[1]])
				level := make([]uint64, len(signI))
				blk.ProcessPacked(signI, signQ, b[1]-b[0], level)
				for n := b[0]; n < b[1]; n++ {
					k := n - b[0]
					if got := level[k/64]>>(k%64)&1 != 0; got != trig[n] {
						t.Fatalf("%s loop, split at %d: level at sample %d is %v, reference trigger %v",
							loopName(popcntKernel), split, n, got, trig[n])
					}
				}
			}
			if blk != *p {
				t.Fatalf("%s loop, split at %d: end state %+v, per-sample %+v", loopName(popcntKernel), split, blk, *p)
			}
		}
	})
}
