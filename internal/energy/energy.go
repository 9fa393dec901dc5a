// Package energy implements the energy differentiator of the custom DSP
// core (paper §2.3, Fig. 4): a coarse-grained detector that compares the
// energy of incoming samples against the recent past to detect energy rises
// and falls on a band of interest, usable when no preamble template is known.
//
// The hardware keeps a running sum of the last N=32 energy readings
//
//	y[n] = y[n-1] + x[n] - x[n-N]
//
// where x[n] = I² + Q² of the incoming quantized sample, and compares y[n]
// against its own value 64 samples earlier (the Z⁻⁶⁴ path in Fig. 4) scaled
// by user thresholds: an energy-high trigger fires when the current sum
// exceeds the delayed sum times the high threshold, and an energy-low
// trigger when the delayed sum exceeds the current sum times the low
// threshold. Thresholds are configurable between 3 dB and 30 dB.
package energy

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/fixed"
	"repro/internal/fpga"
)

// WindowLength is the moving-sum length of the hardware design: 32 samples.
const WindowLength = 32

// CompareDelay is the Z⁻⁶⁴ delay between the current and reference energy
// sums.
const CompareDelay = 64

// DetectionCycles is the worst-case latency from the start of an energy step
// to the trigger: the 32-sample window must fill with the new level, i.e.
// 32 samples × 4 cycles = 128 cycles = 1.28 µs (paper §3.1: Ten_det).
const DetectionCycles = WindowLength * fpga.CyclesPerSample

// Threshold limits in dB (paper §2.3: "any energy level change between 3dB
// and 30dB").
const (
	MinThresholdDB = 3.0
	MaxThresholdDB = 30.0
)

// noiseFloorSum keeps the delayed-comparison meaningful during silence: a
// sum of zeros would let any tiny energy blip satisfy cur > delayed*k. Real
// hardware always integrates thermal noise plus ADC dither; we clamp the
// reference sum to the energy of ~1 LSB per sample.
const noiseFloorSum = WindowLength

// Differentiator is the streaming energy rise/fall detector. Not safe for
// concurrent use.
type Differentiator struct {
	window [WindowLength]uint64 // raw x[n] energy readings
	wpos   int

	sums [CompareDelay]uint64 // history of y[n] for the Z⁻⁶⁴ comparison
	spos int

	sum  uint64
	seen int // total samples consumed, saturates once warm

	// Thresholds in Q16.16 linear fixed point (the register bus carries a
	// 32-bit scaled integer, not a float).
	highQ16 uint64
	lowQ16  uint64

	highEnabled bool
	lowEnabled  bool
}

// New returns a differentiator with both triggers disabled.
func New() *Differentiator {
	return &Differentiator{}
}

// SetHighThresholdDB enables energy-high detection at the given dB rise.
func (d *Differentiator) SetHighThresholdDB(db float64) error {
	q, err := thresholdQ16(db)
	if err != nil {
		return err
	}
	d.highQ16 = q
	d.highEnabled = true
	return nil
}

// SetLowThresholdDB enables energy-low detection at the given dB fall.
func (d *Differentiator) SetLowThresholdDB(db float64) error {
	q, err := thresholdQ16(db)
	if err != nil {
		return err
	}
	d.lowQ16 = q
	d.lowEnabled = true
	return nil
}

// DisableHigh turns off energy-high detection.
func (d *Differentiator) DisableHigh() { d.highEnabled = false }

// DisableLow turns off energy-low detection.
func (d *Differentiator) DisableLow() { d.lowEnabled = false }

func thresholdQ16(db float64) (uint64, error) {
	if db < MinThresholdDB || db > MaxThresholdDB {
		return 0, fmt.Errorf("energy: threshold %.1f dB outside [%v, %v]",
			db, MinThresholdDB, MaxThresholdDB)
	}
	return uint64(dsp.FromDB(db) * 65536), nil
}

// Reset clears all sample state but keeps thresholds.
func (d *Differentiator) Reset() {
	d.window = [WindowLength]uint64{}
	d.sums = [CompareDelay]uint64{}
	d.wpos, d.spos, d.sum, d.seen = 0, 0, 0, 0
}

// Process consumes one quantized sample and reports whether the high or low
// trigger fired on this sample.
func (d *Differentiator) Process(s fixed.IQ) (high, low bool) {
	x := s.Energy()
	// y[n] = y[n-1] + x[n] - x[n-N]
	d.sum += x - d.window[d.wpos]
	d.window[d.wpos] = x
	d.wpos++
	if d.wpos == WindowLength {
		d.wpos = 0
	}

	delayed := d.sums[d.spos]
	d.sums[d.spos] = d.sum
	d.spos++
	if d.spos == CompareDelay {
		d.spos = 0
	}

	if d.seen < WindowLength+CompareDelay {
		d.seen++
		return false, false // comparison pipeline still filling
	}

	ref := delayed
	if ref < noiseFloorSum {
		ref = noiseFloorSum
	}
	cur := d.sum
	if cur < noiseFloorSum {
		cur = noiseFloorSum
	}
	if d.highEnabled && cur<<16 > ref*d.highQ16 {
		high = true
	}
	if d.lowEnabled && ref<<16 > cur*d.lowQ16 {
		low = true
	}
	return high, low
}

// ProcessBits is the SoA block entry point: it consumes the separate int16
// I/Q planes fixed.QuantizeFused writes, computes each sample's energy
// reading x[n] = I²+Q² in place (two int16 loads beat a 64-bit energy plane
// round-tripping through the cache), and packs the high/low trigger-level
// decisions into bitmaps — bit k of high[w]/low[w] ⟺ sample w·64+k fired.
// Unused bits of the last words are cleared, so a zero word means "64 quiet
// samples" and the block datapath can skip them wholesale. Decisions and
// end-of-block state are bit-identical to calling Process once per sample.
func (d *Differentiator) ProcessBits(iPlane, qPlane []int16, high, low []uint64) {
	n := len(iPlane)
	if n == 0 {
		return
	}
	_ = qPlane[:n]
	words := (n + 63) >> 6
	_ = high[:words]
	_ = low[:words]
	hiOn, loOn := d.highEnabled, d.lowEnabled
	hiQ, loQ := d.highQ16, d.lowQ16
	// Running state lives in registers for the whole block; only the two
	// ring buffers are touched through the receiver. Both ring lengths are
	// powers of two, so the wrap is a mask instead of a compare-and-reset.
	sum, wpos, spos, seen := d.sum, d.wpos, d.spos, d.seen
	for base, w := 0, 0; base < n; base, w = base+64, w+1 {
		count := n - base
		if count > 64 {
			count = 64
		}
		var hw, lw uint64
		k := 0
		// Cold loop: the comparison pipeline is still filling; no sample in
		// this region can produce a trigger level.
		for ; k < count && seen < WindowLength+CompareDelay; k++ {
			vi, vq := int64(iPlane[base+k]), int64(qPlane[base+k])
			e := uint64(vi*vi + vq*vq)
			sum += e - d.window[wpos]
			d.window[wpos] = e
			wpos = (wpos + 1) & (WindowLength - 1)
			d.sums[spos] = sum
			spos = (spos + 1) & (CompareDelay - 1)
			seen++
		}
		// Hot loop: warm pipeline, no fill check, mask-wrapped rings.
		for ; k < count; k++ {
			vi, vq := int64(iPlane[base+k]), int64(qPlane[base+k])
			e := uint64(vi*vi + vq*vq)
			sum += e - d.window[wpos]
			d.window[wpos] = e
			wpos = (wpos + 1) & (WindowLength - 1)
			delayed := d.sums[spos]
			d.sums[spos] = sum
			spos = (spos + 1) & (CompareDelay - 1)

			ref := delayed
			if ref < noiseFloorSum {
				ref = noiseFloorSum
			}
			cur := sum
			if cur < noiseFloorSum {
				cur = noiseFloorSum
			}
			if hiOn && cur<<16 > ref*hiQ {
				hw |= 1 << k
			}
			if loOn && ref<<16 > cur*loQ {
				lw |= 1 << k
			}
		}
		high[w] = hw
		low[w] = lw
	}
	d.sum, d.wpos, d.spos, d.seen = sum, wpos, spos, seen
}

// CanFire reports whether either trigger edge is enabled.
func (d *Differentiator) CanFire() bool { return d.highEnabled || d.lowEnabled }

// SkipBlock consumes the receive block ProcessBits would read quantized,
// without comparisons: the block datapath calls it while CanFire is false.
// Only the last WindowLength+CompareDelay samples can reach the state a
// later block reads (the window ring, the Z⁻⁶⁴ sum history and the running
// sum), so the ring positions jump over the rest and only that tail is
// quantized and run through the ring-and-sum update. sum is always the
// exact integer sum of window, so after WindowLength tail samples both hold
// the newest readings whatever the ring held before, and the last
// CompareDelay samples rewrite every sums slot.
func (d *Differentiator) SkipBlock(rx []complex128) {
	n := len(rx)
	tail := min(n, WindowLength+CompareDelay)
	skip := n - tail
	d.wpos = (d.wpos + skip) & (WindowLength - 1)
	d.spos = (d.spos + skip) & (CompareDelay - 1)
	sum, wpos, spos := d.sum, d.wpos, d.spos
	for _, x := range rx[skip:] {
		q := fixed.Quantize(x)
		vi, vq := int64(q.I), int64(q.Q)
		e := uint64(vi*vi + vq*vq)
		sum += e - d.window[wpos]
		d.window[wpos] = e
		wpos = (wpos + 1) & (WindowLength - 1)
		d.sums[spos] = sum
		spos = (spos + 1) & (CompareDelay - 1)
	}
	d.sum, d.wpos, d.spos = sum, wpos, spos
	d.seen = min(d.seen+n, WindowLength+CompareDelay)
}

// Resources reports the synthesized utilization of the energy differentiator
// block (paper Fig. 4 inset).
func (d *Differentiator) Resources() fpga.Resources {
	return fpga.Resources{Slices: 1262, FFs: 1313, LUTs: 2513, DSP48s: 6}
}
