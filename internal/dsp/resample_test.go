package dsp

import (
	"encoding/binary"
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
		bank := r.bank(p)
		for k := range bank {
			phase[p] = append(phase[p], bank[len(bank)-1-k][0])
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
	for i := 4076; i < min(4116, n); i++ {
		x[i] = zeros[i%len(zeros)]
	}
	return x
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// hasResampleKernel is resampleKernel as package init set it, before any
// test changes it.
var hasResampleKernel = resampleKernel

// withResampleLoops runs f once per dense-output loop this machine has: the
// Go loop, and the SSE2 kernel where there is one. It restores
// resampleKernel after.
func withResampleLoops(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() { resampleKernel = hasResampleKernel }()
	loops := []bool{false}
	if hasResampleKernel {
		loops = append(loops, true)
	}
	for _, resampleKernel = range loops {
		name := "go"
		if resampleKernel {
			name = "kernel"
		}
		t.Run(name, f)
	}
}

// checkSliding feeds in to a fresh L/M resampler and to the sliding
// reference in the same chunks, cycling through chunks, with a Reset of
// both before in[resetAt:], and pins every output Float64bits-equal.
func checkSliding(t *testing.T, name string, in Samples, l, m, taps int, chunks []int, resetAt int) {
	t.Helper()
	r := NewResampler(l, m, taps)
	ref := newSlidingResampler(r)
	var got, want Samples
	c := 0
	feed := func(seg Samples) {
		for off := 0; off < len(seg); c++ {
			part := seg[off:min(off+chunks[c%len(chunks)], len(seg))]
			got = append(got, r.Process(part)...)
			want = append(want, ref.process(part)...)
			off += len(part)
		}
	}
	feed(in[:resetAt])
	r.Reset()
	ref.reset()
	feed(in[resetAt:])
	if len(got) != len(want) {
		t.Fatalf("%s %d/%d taps=%d chunks=%v: %d outputs, reference %d",
			name, l, m, taps, chunks, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s %d/%d taps=%d chunks=%v: output %d = %v, reference %v",
				name, l, m, taps, chunks, i, got[i], want[i])
		}
	}
}

// TestResamplerMatchesSlidingReference pins Process against the
// sliding-history reference, Float64bits-equal on every output sample,
// across inputs, the program's ratios, filter lengths and chunkings, with
// a Reset in the middle of the stream, on each dense-output loop. The
// burst-gated input drives the zero-window rule. The cycling chunks hand
// linear 1 to 12 inputs per call, so the kernel's groups of four end on
// every remainder.
func TestResamplerMatchesSlidingReference(t *testing.T) {
	const resetAt = 6001
	inputs := map[string]Samples{
		"noise":       resamplerDiffInput(10000),
		"burst-gated": burstGatedInput(10000),
	}
	withResampleLoops(t, func(t *testing.T) {
		for name, in := range inputs {
			for _, ratio := range [][2]int{{5, 4}, {4, 5}, {125, 57}, {25, 22}} {
				for _, taps := range []int{2, 8} {
					runs := make([]int, 12)
					for k := range runs {
						runs[k] = taps + k
					}
					for _, chunks := range [][]int{{1}, {7}, {8}, {9}, {4096}, {len(in)}, runs} {
						checkSliding(t, name, in, ratio[0], ratio[1], taps, chunks, resetAt)
					}
				}
			}
		}
	})
}

// TestResamplerDenseRuns hands dense stretches of 1 to 12 inputs, from
// every phase accumulator, to each dense-output loop, and pins each output
// Float64bits-equal to dot at the position acc + k·M. The runs it makes
// include every length up to 9 outputs that the ratio allows (an input
// emits at least ⌊L/M⌋), so every remainder of a group of four is hit.
func TestResamplerDenseRuns(t *testing.T) {
	in := resamplerDiffInput(400)[:64]
	withResampleLoops(t, func(t *testing.T) {
		for _, ratio := range [][2]int{{5, 4}, {4, 5}, {125, 57}, {25, 22}} {
			r := NewResampler(ratio[0], ratio[1], 8)
			a := r.taps - 1
			seen := map[int]bool{}
			for acc := 0; acc < r.m; acc++ {
				for b := a + 1; b <= a+12; b++ {
					out, next := r.dense(make(Samples, 0, 32), in, a, b, acc)
					seen[len(out)] = true
					q := acc
					for k, y := range out {
						i := a + q/r.l
						if want := dot(r.bank(q%r.l), in[i+1-r.taps:i+1]); !sameBits(y, want) {
							t.Fatalf("%d/%d acc=%d inputs=%d: output %d = %v, dot %v",
								r.l, r.m, acc, b-a, k, y, want)
						}
						q += r.m
					}
					if want := q - r.l*(b-a); next != want {
						t.Fatalf("%d/%d acc=%d inputs=%d: accumulator %d, want %d",
							r.l, r.m, acc, b-a, next, want)
					}
				}
			}
			for n := max(1, r.l/r.m); n <= 9; n++ {
				if !seen[n] {
					t.Errorf("%d/%d: no run of %d outputs", r.l, r.m, n)
				}
			}
		}
	})
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
	chunks := map[string]Samples{
		"noise":       resamplerDiffInput(4096),
		"burst-gated": burstGatedInput(4096),
	}
	withResampleLoops(t, func(t *testing.T) {
		for name, chunk := range chunks {
			r := NewResampler(5, 4, 8)
			r.Process(chunk)
			if allocs := testing.AllocsPerRun(50, func() { r.Process(chunk) }); allocs != 0 {
				t.Errorf("%s: warm Process allocates %v times per call, want 0", name, allocs)
			}
		}
	})
}

// FuzzResampler feeds raw float bits, 16 bytes a sample, to a resampler at
// one of the program's ratios in two Process calls split at a fuzzed
// point, on each dense-output loop. The two loops must agree on every
// input: Float64bits-equal, except that a NaN may carry either operand's
// payload (which one an add returns depends on the operand order the
// compiler picks, and the coverage build of -fuzz picks another). On
// finite input they must equal the sliding reference Float64bits-equal;
// on other input the reference's complex product mixes the rails (Inf·0 is
// NaN), which the per-rail dot does not.
func FuzzResampler(f *testing.F) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1, -0.5}
	noise := resamplerDiffInput(300)
	f.Add(sampleBytes(noise), uint8(0), uint16(150))
	f.Add(sampleBytes(burstGatedInput(300)), uint8(1), uint16(7))
	f.Add(sampleBytes(noise[:40]), uint8(2), uint16(0))
	f.Add(sampleBytes(noise[:99]), uint8(3), uint16(98))
	for k, v := range special {
		x := noise[:64].Clone()
		for i := 20; i < 30; i++ {
			x[i] = complex(v, special[(k+i)%len(special)])
		}
		f.Add(sampleBytes(x), uint8(k), uint16(25))
	}
	ratios := [][2]int{{5, 4}, {4, 5}, {125, 57}, {25, 22}}
	f.Fuzz(func(t *testing.T, data []byte, ratio uint8, split uint16) {
		in := make(Samples, min(len(data)/16, 1024))
		finite := true
		for i := range in {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			in[i] = complex(re, im)
			finite = finite && !math.IsInf(re, 0) && !math.IsNaN(re) && !math.IsInf(im, 0) && !math.IsNaN(im)
		}
		lm := ratios[int(ratio)%len(ratios)]
		cut := int(split) % (len(in) + 1)
		run := func(kernel bool) Samples {
			defer func() { resampleKernel = hasResampleKernel }()
			resampleKernel = kernel
			r := NewResampler(lm[0], lm[1], 8)
			return append(r.Process(in[:cut]).Clone(), r.Process(in[cut:])...)
		}
		got := run(false)
		if hasResampleKernel {
			kern := run(true)
			for i := range got {
				if !sameBitsOrNaN(kern[i], got[i]) {
					t.Fatalf("%d/%d: kernel output %d = %v, Go loop %v", lm[0], lm[1], i, kern[i], got[i])
				}
			}
		}
		if !finite {
			return
		}
		ref := newSlidingResampler(NewResampler(lm[0], lm[1], 8))
		want := append(ref.process(in[:cut]), ref.process(in[cut:])...)
		if len(got) != len(want) {
			t.Fatalf("%d/%d: %d outputs, reference %d", lm[0], lm[1], len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%d/%d: output %d = %v, reference %v", lm[0], lm[1], i, got[i], want[i])
			}
		}
	})
}

// sameBitsOrNaN is sameBits, with any NaN equal to any other on a rail.
func sameBitsOrNaN(a, b complex128) bool {
	rail := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return rail(real(a), real(b)) && rail(imag(a), imag(b))
}

// sampleBytes is FuzzResampler's encoding of x: each rail's float bits,
// little-endian, real first.
func sampleBytes(x Samples) []byte {
	b := make([]byte, 0, 16*len(x))
	for _, v := range x {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

// BenchmarkResampler times one 4096-sample Process call on each
// dense-output loop: 5/4 on dense input (the DDC of every figure), 4/5 on
// burst-gated input (iperf's transmit resampler behind a gated jammer) and
// 125/57 (the WiMAX DDC).
func BenchmarkResampler(b *testing.B) {
	dense := resamplerDiffInput(4096)
	cases := []struct {
		name string
		l, m int
		in   Samples
	}{
		{"5-4-dense", 5, 4, dense},
		{"4-5-burst-gated", 4, 5, burstGatedInput(4096)},
		{"125-57", 125, 57, dense},
	}
	for _, loop := range []struct {
		name   string
		kernel bool
	}{{"go", false}, {"kernel", true}} {
		if loop.kernel && !hasResampleKernel {
			continue
		}
		b.Run(loop.name, func(b *testing.B) {
			defer func() { resampleKernel = hasResampleKernel }()
			resampleKernel = loop.kernel
			for _, c := range cases {
				b.Run(c.name, func(b *testing.B) {
					r := NewResampler(c.l, c.m, 8)
					r.Process(c.in)
					b.SetBytes(int64(len(c.in)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r.Process(c.in)
					}
				})
			}
		})
	}
}
