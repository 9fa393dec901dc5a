package dsp

import (
	"fmt"
	"math"
)

// LowpassTaps designs a windowed-sinc lowpass filter with the given number
// of taps and normalized cutoff (cutoff = fc/fs, 0 < cutoff < 0.5), using a
// Hamming window. Taps are normalized to unit DC gain.
func LowpassTaps(numTaps int, cutoff float64) []float64 {
	if numTaps < 1 {
		panic("dsp: LowpassTaps needs at least 1 tap")
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("dsp: lowpass cutoff %v out of (0, 0.5)", cutoff))
	}
	taps := make([]float64, numTaps)
	m := float64(numTaps - 1)
	var sum float64
	for i := range taps {
		n := float64(i) - m/2
		var s float64
		if n == 0 {
			s = 2 * cutoff
		} else {
			s = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/m)
		if numTaps == 1 {
			w = 1
		}
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}
