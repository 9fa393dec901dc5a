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

// BurstCounter counts, block by block, the bursts of a capture too long to
// hold: the runs where the envelope is at or above level, with gaps of at
// most maxGap samples merged, that last at least minLen samples once
// merged. Runs and gaps may span blocks. It is how Fig. 12's "one-to-one
// correspondence" between downlink frames and jamming bursts is
// established programmatically.
type BurstCounter struct {
	level          float64
	minLen, maxGap int

	n       int    // samples added so far
	inRun   bool   // the last sample added was above level
	runFrom int    // where the above-level run in progress started
	merged  [2]int // the merged interval still open to merging
	any     bool   // merged holds an interval
	bursts  int    // closed merged intervals of at least minLen samples
}

// NewBurstCounter returns a counter of the bursts at or above level that
// last minLen samples, merging gaps of at most maxGap samples.
func NewBurstCounter(level float64, minLen, maxGap int) *BurstCounter {
	return &BurstCounter{level: level, minLen: minLen, maxGap: maxGap}
}

// Add appends a block to the counted stream. Runs above level and the
// gaps between them may span block boundaries.
func (b *BurstCounter) Add(x dsp.Samples) {
	for i, v := range x {
		above := math.Hypot(real(v), imag(v)) >= b.level
		switch {
		case above && !b.inRun:
			b.inRun, b.runFrom = true, b.n+i
		case !above && b.inRun:
			b.inRun = false
			b.closeRun(b.runFrom, b.n+i)
		}
	}
	b.n += len(x)
}

// closeRun takes the above-level run [from, to) into the merged interval,
// or closes that interval and opens a new one when the gap exceeds maxGap.
func (b *BurstCounter) closeRun(from, to int) {
	if b.any && from-b.merged[1] <= b.maxGap {
		b.merged[1] = to
		return
	}
	if b.any && b.merged[1]-b.merged[0] >= b.minLen {
		b.bursts++
	}
	b.merged, b.any = [2]int{from, to}, true
}

// Count returns the number of bursts in the stream added so far, ending a
// run still above level at the last sample.
func (b *BurstCounter) Count() int {
	c := *b
	if c.inRun {
		c.closeRun(c.runFrom, c.n)
	}
	if c.any && c.merged[1]-c.merged[0] >= c.minLen {
		c.bursts++
	}
	return c.bursts
}
