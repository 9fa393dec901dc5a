// Package dsp provides the digital signal processing primitives that every
// other subsystem of the reactive jamming framework is built on: complex
// baseband sample buffers, power and decibel conversions, planned FFT/IFFT,
// FIR lowpass design, window functions, and rational resampling.
//
// All waveforms in the simulator are complex baseband I/Q streams
// (complex128). Conversion to and from the fixed-point representation used
// inside the simulated FPGA lives in package fixed.
package dsp

import "math"

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

// Frame lays wave out between lead and tail zero samples, scaled to snrDB
// over a noise floor of power floor, and returns the lead+len(wave)+tail
// samples, in dst's storage when it has room. Every sample of wave is
// multiplied by √(floor·10^(snrDB/10))/√P, P being wave's (nonzero) power;
// the floor's noise is the caller's to add (NoiseSource.AddTo).
func Frame(dst, wave Samples, lead, tail int, snrDB, floor float64) Samples {
	n := lead + len(wave) + tail
	if cap(dst) < n {
		dst = make(Samples, n)
	}
	dst = dst[:n]
	clear(dst[:lead])
	scale := complex(math.Sqrt(floor*FromDB(snrDB))/math.Sqrt(wave.Power()), 0)
	for i, v := range wave {
		dst[lead+i] = v * scale
	}
	clear(dst[lead+len(wave):])
	return dst
}

// Scale multiplies every sample by the real gain g in place and returns s.
func (s Samples) Scale(g float64) Samples {
	for i := range s {
		s[i] *= complex(g, 0)
	}
	return s
}

// Add accumulates other into s element-wise. The shorter length governs.
func (s Samples) Add(other Samples) Samples {
	n := min(len(s), len(other))
	for i := 0; i < n; i++ {
		s[i] += other[i]
	}
	return s
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

// stageRoot returns the length-th root of unity that seeds one butterfly
// stage's incremental twiddle recurrence. Shared between the FFTPlan
// twiddle tables and the generic kernel the plan tests compare against, so
// both produce identical weights.
func stageRoot(length int, inverse bool) complex128 {
	ang := 2 * math.Pi / float64(length)
	if !inverse {
		ang = -ang
	}
	return complex(math.Cos(ang), math.Sin(ang))
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
