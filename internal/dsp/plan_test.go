package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x through the
// generic kernel: the == reference of FFTPlan.Forward. len(x) must be a
// power of two; FFT panics otherwise.
func FFT(x Samples) {
	fft(x, false)
}

// IFFT computes the in-place inverse FFT of x through the generic kernel,
// including the 1/N scaling: the == reference of FFTPlan.Inverse. len(x)
// must be a power of two.
func IFFT(x Samples) {
	fft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// fft is the generic radix-2 kernel: it evaluates each stage's twiddles by
// the incremental rotation from stageRoot that the plan tabulates.

func fft(x Samples, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		wl := stageRoot(length, inverse)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// TestFFTPlanMatchesGenericFFT pins the planned forward transform bit-exact
// against the generic dsp.FFT across every power-of-two size the system
// uses (the WiFi modem's 64 and the WiMAX modem's 1024 included).
func TestFFTPlanMatchesGenericFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 1024; n <<= 1 {
		p := NewFFTPlan(n)
		for trial := 0; trial < 8; trial++ {
			x := randSamples(rng, n)
			want := x.Clone()
			FFT(want)
			got := x.Clone()
			p.Forward(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: plan Forward[%d] = %v, generic %v",
						n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFFTPlanInverseMatchesGenericIFFT pins the planned inverse — with the
// 1/N scaling folded into the butterfly stages — against the generic
// dsp.IFFT. Power-of-two scalings are exact in IEEE arithmetic, so equality
// here is == (Go's float comparison, which identifies +0 and -0).
func TestFFTPlanInverseMatchesGenericIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 1024; n <<= 1 {
		p := NewFFTPlan(n)
		for trial := 0; trial < 8; trial++ {
			x := randSamples(rng, n)
			want := x.Clone()
			IFFT(want)
			got := x.Clone()
			p.Inverse(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: plan Inverse[%d] = %v, generic %v",
						n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFFTPlanSparseSpectra covers the modem-shaped inputs: mostly-zero
// frequency buffers with a few occupied carriers, where zero-sign handling
// in the folded scaling would show up first.
func TestFFTPlanSparseSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := NewFFTPlan(64)
	for trial := 0; trial < 32; trial++ {
		x := make(Samples, 64)
		for k := 0; k < 8; k++ {
			x[rng.Intn(64)] = complex(float64(rng.Intn(3)-1), float64(rng.Intn(3)-1))
		}
		want := x.Clone()
		IFFT(want)
		got := x.Clone()
		p.Inverse(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sparse Inverse[%d] = %v, generic %v",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestFFTPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := NewFFTPlan(256)
	x := randSamples(rng, 256)
	orig := x.Clone()
	p.Forward(x)
	p.Inverse(x)
	for i := range x {
		if d := x[i] - orig[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFTPlanValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewFFTPlan(12)", func() { NewFFTPlan(12) })
	mustPanic("NewFFTPlan(0)", func() { NewFFTPlan(0) })
	mustPanic("short input", func() { FFT64.Forward(make(Samples, 32)) })
	mustPanic("long input", func() { FFT64.Inverse(make(Samples, 128)) })
	if FFT64.n != 64 {
		t.Errorf("FFT64.n = %d", FFT64.n)
	}
}

// TestFFTPlanZeroAlloc pins the plan's whole point: transforms run in the
// caller's buffer with no per-call allocation.
func TestFFTPlanZeroAlloc(t *testing.T) {
	x := randSamples(rand.New(rand.NewSource(15)), 64)
	if allocs := testing.AllocsPerRun(100, func() {
		FFT64.Forward(x)
		FFT64.Inverse(x)
	}); allocs != 0 {
		t.Errorf("planned transform allocates %.1f per round trip, want 0", allocs)
	}
}

func BenchmarkFFT64Generic(b *testing.B) {
	x := randSamples(rand.New(rand.NewSource(16)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT64Planned(b *testing.B) {
	x := randSamples(rand.New(rand.NewSource(17)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT64.Forward(x)
	}
}

func BenchmarkIFFT64Planned(b *testing.B) {
	x := randSamples(rand.New(rand.NewSource(18)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT64.Inverse(x)
	}
}
