package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

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
