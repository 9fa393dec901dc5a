package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

// LowpassTaps designs a windowed-sinc lowpass filter with the given number
// of taps and normalized cutoff (cutoff = fc/fs, 0 < cutoff < 0.5), using a
// Hamming window. Taps are normalized to unit DC gain. It is the oracle for
// the lowpass NewResampler writes into its banks.
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

func TestLowpassDCGain(t *testing.T) {
	taps := LowpassTaps(63, 0.1)
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("DC gain = %v, want 1", sum)
	}
}

// powerResponse is the taps' power response at normalized frequency f:
// |Σ h[k]·e^{-j2πfk}|².
func powerResponse(taps []float64, f float64) float64 {
	var acc complex128
	for k, h := range taps {
		acc += complex(h, 0) * cmplx.Exp(complex(0, -2*math.Pi*f*float64(k)))
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

func TestLowpassAttenuatesStopband(t *testing.T) {
	taps := LowpassTaps(63, 0.1)
	// Passband at 0.02, stopband at 0.4.
	pdb := DB(powerResponse(taps, 0.02))
	sdb := DB(powerResponse(taps, 0.4))
	if pdb < -1 {
		t.Errorf("passband attenuation %v dB too high", pdb)
	}
	if sdb > -40 {
		t.Errorf("stopband rejection only %v dB", sdb)
	}
}

func TestLowpassTapsValidation(t *testing.T) {
	for _, cutoff := range []float64{0, 0.5, -0.1, 0.7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cutoff %v should panic", cutoff)
				}
			}()
			LowpassTaps(8, cutoff)
		}()
	}
}

// TestResamplerBanksMatchLowpass pins NewResampler's banks to the oracle:
// LowpassTaps at the resampler's cutoff, scaled by L, tap p+k·L of the
// prototype at bank p's delay k, both lanes of each pair equal.
func TestResamplerBanksMatchLowpass(t *testing.T) {
	for _, ratio := range [][2]int{{5, 4}, {4, 5}, {125, 57}, {25, 22}} {
		l, m := ratio[0], ratio[1]
		r := NewResampler(l, m, 8)
		taps := LowpassTaps(l*r.taps, 0.5/float64(max(l, m))*0.9)
		for p := 0; p < l; p++ {
			for k := 0; k < r.taps; k++ {
				want := taps[p+k*l] * float64(l)
				if got := r.banks[p*r.taps+r.taps-1-k]; got != [2]float64{want, want} {
					t.Fatalf("%d/%d: phase %d delay %d: bank %v, want %v", l, m, p, k, got, want)
				}
			}
		}
	}
}
