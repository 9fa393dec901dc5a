// Package dsp provides the digital signal processing primitives that every
// other subsystem of the reactive jamming framework is built on: complex
// baseband sample buffers, power and decibel conversions, FFT/IFFT, FIR
// lowpass design, window functions, and rational resampling.
//
// All waveforms in the simulator are complex baseband I/Q streams
// (complex128). Conversion to and from the fixed-point representation used
// inside the simulated FPGA lives in package fixed.
package dsp

import (
	"fmt"
	"math"
)

// Samples is a complex baseband I/Q sample buffer.
type Samples []complex128

// Clone returns a deep copy of s.
func (s Samples) Clone() Samples {
	out := make(Samples, len(s))
	copy(out, s)
	return out
}

// Energy returns the total energy sum(|x|^2) of the buffer.
func (s Samples) Energy() float64 {
	var e float64
	for _, x := range s {
		e += real(x)*real(x) + imag(x)*imag(x)
	}
	return e
}

// Power returns the mean power of the buffer, or 0 for an empty buffer.
func (s Samples) Power() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Energy() / float64(len(s))
}

// Scale multiplies every sample by the real gain g in place and returns s.
func (s Samples) Scale(g float64) Samples {
	for i := range s {
		s[i] *= complex(g, 0)
	}
	return s
}

// ScaleToPower rescales the buffer in place so its mean power equals p.
// A zero-power buffer is left unchanged.
func (s Samples) ScaleToPower(p float64) Samples {
	cur := s.Power()
	if cur <= 0 {
		return s
	}
	return s.Scale(math.Sqrt(p / cur))
}

// Add accumulates other into s element-wise. The shorter length governs.
func (s Samples) Add(other Samples) Samples {
	n := min(len(s), len(other))
	for i := 0; i < n; i++ {
		s[i] += other[i]
	}
	return s
}

// PeakAmplitude returns max |x| over the buffer.
func (s Samples) PeakAmplitude() float64 {
	var peak float64
	for _, x := range s {
		if a := math.Hypot(real(x), imag(x)); a > peak {
			peak = a
		}
	}
	return peak
}

// DB converts a linear power ratio to decibels. DB(0) returns -Inf.
func DB(ratio float64) float64 {
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmplitudeFromDB converts decibels to a linear amplitude (voltage) ratio.
func AmplitudeFromDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two; FFT panics otherwise, since a non-power-of-2
// transform indicates a programming error in a fixed-size modem pipeline.
func FFT(x Samples) {
	fft(x, false)
}

// IFFT computes the in-place inverse FFT of x, including the 1/N scaling.
// len(x) must be a power of two.
func IFFT(x Samples) {
	fft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// stageRoot returns the length-th root of unity that seeds one butterfly
// stage's incremental twiddle recurrence. Shared between the generic kernel
// and the FFTPlan twiddle tables so both produce identical weights.
func stageRoot(length int, inverse bool) complex128 {
	ang := 2 * math.Pi / float64(length)
	if !inverse {
		ang = -ang
	}
	return complex(math.Cos(ang), math.Sin(ang))
}

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

// Tone synthesizes n samples of a complex exponential at frequency freq
// given sample rate rate, with unit amplitude.
func Tone(n int, freq, rate float64) Samples {
	out := make(Samples, n)
	w := 2 * math.Pi * freq / rate
	for i := range out {
		ph := w * float64(i)
		out[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	return out
}
