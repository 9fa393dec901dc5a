// Package channel models over-the-air propagation: the Rayleigh
// tapped-delay-line fading of the §5 WiMAX downlink (Fig. 12). The cabled
// §4 link needs no channel model of its own: its port-to-port losses are
// package testbed's Table 1 and its receiver noise is dsp.NoiseSource.
package channel

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
)

// Multipath is a small tapped-delay-line fading channel for over-the-air
// experiments (the §5 WiMAX downlink is broadcast, not cabled).
type Multipath struct {
	taps []complex128
}

// NewRayleighMultipath draws nTaps complex Gaussian taps with exponentially
// decaying power (decay per tap, e.g. 0.5) from the given PRNG and
// normalizes total power to 1.
func NewRayleighMultipath(rng *rand.Rand, nTaps int, decay float64) *Multipath {
	if nTaps < 1 {
		nTaps = 1
	}
	taps := make([]complex128, nTaps)
	var p float64
	w := 1.0
	for i := range taps {
		taps[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(math.Sqrt(w/2), 0)
		p += real(taps[i])*real(taps[i]) + imag(taps[i])*imag(taps[i])
		w *= decay
	}
	scale := complex(1/math.Sqrt(p), 0)
	for i := range taps {
		taps[i] *= scale
	}
	return &Multipath{taps: taps}
}

// Apply convolves the waveform with the channel taps in place. Each
// output reads only its own and earlier inputs, so the outputs are written
// from the last one back.
func (m *Multipath) Apply(x dsp.Samples) {
	for i := len(x) - 1; i >= 0; i-- {
		var acc complex128
		for k, t := range m.taps {
			if i-k < 0 {
				break
			}
			acc += x[i-k] * t
		}
		x[i] = acc
	}
}
