package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResamplerRatioReduced(t *testing.T) {
	r := NewResampler(10, 8, 8)
	if r.l != 5 || r.m != 4 {
		t.Errorf("ratio = %d/%d, want 5/4", r.l, r.m)
	}
}

func TestResamplerOutputLength(t *testing.T) {
	cases := []struct{ l, m, in int }{
		{5, 4, 1000}, {4, 5, 1000}, {125, 57, 1140}, {1, 1, 500},
	}
	for _, c := range cases {
		out := Resample(make(Samples, c.in), c.l, c.m)
		want := c.in * c.l / c.m
		if got := len(out); got < want-2 || got > want+2 {
			t.Errorf("L/M=%d/%d: %d in -> %d out, want ~%d", c.l, c.m, c.in, got, want)
		}
	}
}

// tonePeakBin returns the FFT bin with the most energy.
func tonePeakBin(x Samples, n int) int {
	buf := x[:n].Clone()
	FFT(buf)
	best, bestMag := 0, 0.0
	for k, v := range buf {
		if mag := cmplx.Abs(v); mag > bestMag {
			best, bestMag = k, mag
		}
	}
	return best
}

func TestResamplerPreservesToneFrequency(t *testing.T) {
	// A tone at 2 MHz sampled at 20 MSPS, resampled 5/4 to 25 MSPS, must
	// still sit at 2 MHz: bin 0.1*N before, bin 0.08*N after.
	in := Tone(4096, 2e6, 20e6)
	out := Resample(in, 5, 4)
	const n = 2048
	inBin := tonePeakBin(in[512:], n)
	outBin := tonePeakBin(out[512:], n)
	wantIn := int(math.Round(2e6 / 20e6 * n))
	wantOut := int(math.Round(2e6 / 25e6 * n))
	if abs(inBin-wantIn) > 1 {
		t.Errorf("input tone bin %d, want %d", inBin, wantIn)
	}
	if abs(outBin-wantOut) > 1 {
		t.Errorf("output tone bin %d, want %d", outBin, wantOut)
	}
}

func TestResamplerToneFrequencyProperty(t *testing.T) {
	f := func(freqSel uint8) bool {
		// In-band tone (below both Nyquists after 4/5 decimation).
		freq := (0.02 + 0.3*float64(freqSel)/255) * 20e6 / 2
		in := Tone(4096, freq, 20e6)
		out := Resample(in, 5, 4)
		const n = 2048
		got := tonePeakBin(out[512:], n)
		want := int(math.Round(freq / 25e6 * n))
		return abs(got-want) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResamplerStreamingSeamless(t *testing.T) {
	in := Tone(2000, 1e6, 20e6)
	whole := NewResampler(5, 4, 8).Process(in)
	r := NewResampler(5, 4, 8)
	var chunked Samples
	for i := 0; i < len(in); i += 137 {
		end := min(i+137, len(in))
		chunked = append(chunked, r.Process(in[i:end])...)
	}
	if len(whole) != len(chunked) {
		t.Fatalf("length mismatch: %d vs %d", len(whole), len(chunked))
	}
	for i := range whole {
		if cmplx.Abs(whole[i]-chunked[i]) > 1e-9 {
			t.Fatalf("chunked processing differs at %d", i)
		}
	}
}

func TestResamplerAmplitudePreserved(t *testing.T) {
	in := Tone(4096, 1e6, 20e6)
	out := Resample(in, 5, 4)
	// Skip filter transient, compare steady-state power (unit-power tone).
	p := out[256 : len(out)-16].Power()
	if math.Abs(p-1) > 0.05 {
		t.Errorf("resampled tone power %v, want ~1", p)
	}
}

func TestResamplerInvalidRatio(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ratio should panic")
		}
	}()
	NewResampler(0, 4, 8)
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{{12, 8, 4}, {25, 20, 5}, {7, 13, 1}, {5, 5, 5}}
	for _, c := range cases {
		if g := gcd(c.a, c.b); g != c.want {
			t.Errorf("gcd(%d,%d)=%d want %d", c.a, c.b, g, c.want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// slidingResampler is the bit-exactness reference for Resampler.Process:
// the sliding-history implementation the ring buffer replaced, kept
// verbatim over the same polyphase banks. Its history slides with
// hist[1:] + append and every tap multiplies as a complex product.
type slidingResampler struct {
	l, m  int
	phase [][]float64
	hist  Samples
	acc   int
}

func newSlidingResampler(r *Resampler) *slidingResampler {
	phase := make([][]float64, r.l)
	for p := range phase {
		for i := p; i < len(r.taps); i += r.l {
			phase[p] = append(phase[p], r.taps[i])
		}
	}
	return &slidingResampler{l: r.l, m: r.m, phase: phase}
}

func (r *slidingResampler) reset() {
	r.hist = r.hist[:0]
	r.acc = 0
}

func (r *slidingResampler) process(in Samples) Samples {
	tapsPerPhase := len(r.phase[0])
	out := make(Samples, 0, len(in)*r.l/r.m+1)
	for _, x := range in {
		r.hist = append(r.hist, x)
		if len(r.hist) > tapsPerPhase {
			r.hist = r.hist[1:]
		}
		for r.acc < r.l {
			out = append(out, r.dot(r.acc))
			r.acc += r.m
		}
		r.acc -= r.l
	}
	return out
}

func (r *slidingResampler) dot(p int) complex128 {
	bank := r.phase[p]
	var acc complex128
	n := len(r.hist)
	for k, c := range bank {
		idx := n - 1 - k
		if idx < 0 {
			break
		}
		acc += r.hist[idx] * complex(c, 0)
	}
	return acc
}

// resamplerDiffInput is Gaussian noise with stretches of signed zeros: a
// run of +0, a run of −0 and single mixed-sign zeros, so the differential
// covers the sign-of-zero cases of the real-tap product.
func resamplerDiffInput(n int) Samples {
	rng := rand.New(rand.NewSource(57))
	negZero := math.Copysign(0, -1)
	x := make(Samples, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 100; i < 140; i++ {
		x[i] = 0
	}
	for i := 200; i < 240; i++ {
		x[i] = complex(negZero, negZero)
	}
	for i := 300; i < n; i += 97 {
		x[i] = complex(negZero, 0)
		x[i+1] = complex(0, negZero)
	}
	return x
}

// burstGatedInput is what a gated transmitter emits: Gaussian bursts
// separated by zero spans of 1 to 7 samples, shorter than a window at 8
// taps, and of 8 or more, made of +0 and −0 on either rail. The two
// longest spans each hold a lone sample that is zero on one rail only.
// One 40-sample span crosses the 4096-sample chunk boundary, and the other
// chunkings cut through spans wherever they fall.
func burstGatedInput(n int) Samples {
	rng := rand.New(rand.NewSource(58))
	negZero := math.Copysign(0, -1)
	zeros := []complex128{0, complex(negZero, negZero), complex(negZero, 0), complex(0, negZero)}
	spans := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 100}
	x := make(Samples, n)
	for i, s := 0, 0; i < n; s++ {
		for end := min(i+5+rng.Intn(60), n); i < end; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		span := spans[s%len(spans)]
		for end := min(i+span, n); i < end; i++ {
			x[i] = zeros[rng.Intn(len(zeros))]
		}
		if span >= 33 {
			g := rng.NormFloat64()
			x[i-span/2] = [2]complex128{complex(g, 0), complex(0, g)}[s%2]
		}
	}
	for i := 4076; i < 4116; i++ {
		x[i] = zeros[i%len(zeros)]
	}
	return x
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestResamplerMatchesSlidingReference pins Process against the
// sliding-history reference, Float64bits-equal on every output sample,
// across inputs, ratios, filter lengths and chunkings, with a Reset in the
// middle of the stream. The burst-gated input drives the zero-window rule.
func TestResamplerMatchesSlidingReference(t *testing.T) {
	const resetAt = 6001
	inputs := map[string]Samples{
		"noise":       resamplerDiffInput(10000),
		"burst-gated": burstGatedInput(10000),
	}
	for name, in := range inputs {
		for _, ratio := range [][2]int{{5, 4}, {4, 5}, {125, 57}} {
			for _, taps := range []int{2, 8} {
				for _, chunk := range []int{1, 7, 8, 9, 4096, len(in)} {
					r := NewResampler(ratio[0], ratio[1], taps)
					ref := newSlidingResampler(r)
					var got, want Samples
					feed := func(seg Samples) {
						for off := 0; off < len(seg); off += chunk {
							part := seg[off:min(off+chunk, len(seg))]
							got = append(got, r.Process(part)...)
							want = append(want, ref.process(part)...)
						}
					}
					feed(in[:resetAt])
					r.Reset()
					ref.reset()
					feed(in[resetAt:])
					if len(got) != len(want) {
						t.Fatalf("%s %d/%d taps=%d chunk=%d: %d outputs, reference %d",
							name, ratio[0], ratio[1], taps, chunk, len(got), len(want))
					}
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s %d/%d taps=%d chunk=%d: output %d = %v, reference %v",
								name, ratio[0], ratio[1], taps, chunk, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestResamplerOutputValidUntilNextCall documents the ownership contract:
// Process returns the resampler's own buffer, and the next call overwrites
// it. A caller that keeps output across calls must copy it first.
func TestResamplerOutputValidUntilNextCall(t *testing.T) {
	in := resamplerDiffInput(2048)
	r := NewResampler(5, 4, 8)
	first := r.Process(in[:1024])
	kept := first.Clone()
	second := r.Process(in[1024:])
	if &first[0] != &second[0] {
		t.Fatal("second call did not reuse the first call's buffer")
	}
	want := NewResampler(5, 4, 8).Process(in[:1024])
	for i := range want {
		if !sameBits(kept[i], want[i]) {
			t.Fatalf("copied output %d = %v, want %v", i, kept[i], want[i])
		}
	}
}

func TestResamplerZeroAllocWarm(t *testing.T) {
	chunk := resamplerDiffInput(4096)
	r := NewResampler(5, 4, 8)
	r.Process(chunk)
	if allocs := testing.AllocsPerRun(50, func() { r.Process(chunk) }); allocs != 0 {
		t.Errorf("warm Process allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkResampler(b *testing.B) {
	chunk := resamplerDiffInput(4096)
	r := NewResampler(5, 4, 8)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Process(chunk)
	}
}
