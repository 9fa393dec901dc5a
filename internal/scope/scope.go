// Package scope models the oscilloscope connected to port 3 of the 5-port
// network (§4.1), used in the WiMAX experiment of §5 to observe base-station
// frames and jamming bursts in the time domain (Fig. 12): the display's
// magnitude envelope and the burst intervals read off it.
package scope

import (
	"math"

	"repro/internal/dsp"
)

// Envelope returns the magnitude envelope of a waveform, decimated by step,
// the way the scope display renders it.
func Envelope(x dsp.Samples, step int) []float64 {
	if step < 1 {
		step = 1
	}
	out := make([]float64, 0, len(x)/step+1)
	for i := 0; i < len(x); i += step {
		end := i + step
		if end > len(x) {
			end = len(x)
		}
		var peak float64
		for _, v := range x[i:end] {
			if a := math.Hypot(real(v), imag(v)); a > peak {
				peak = a
			}
		}
		out = append(out, peak)
	}
	return out
}

// BurstIntervals returns the [start, end) sample intervals where the
// envelope stays above level for at least minLen samples, merging gaps
// shorter than maxGap — how Fig. 12's "one-to-one correspondence" between
// downlink frames and jamming bursts is established programmatically.
func BurstIntervals(x dsp.Samples, level float64, minLen, maxGap int) [][2]int {
	var raw [][2]int
	start := -1
	for i, v := range x {
		above := math.Hypot(real(v), imag(v)) >= level
		switch {
		case above && start < 0:
			start = i
		case !above && start >= 0:
			raw = append(raw, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		raw = append(raw, [2]int{start, len(x)})
	}
	// Merge close bursts.
	var merged [][2]int
	for _, iv := range raw {
		if n := len(merged); n > 0 && iv[0]-merged[n-1][1] <= maxGap {
			merged[n-1][1] = iv[1]
			continue
		}
		merged = append(merged, iv)
	}
	// Drop short glitches.
	var out [][2]int
	for _, iv := range merged {
		if iv[1]-iv[0] >= minLen {
			out = append(out, iv)
		}
	}
	return out
}
