// Package xcorr implements the signal cross-correlator of the custom DSP
// core: a bit-exact port of the 64-sample weighted phase correlator from the
// Rice University WARP OFDM Reference Design v15, with the paper's added
// custom logic (run-time coefficient loading and threshold comparison;
// paper §2.3, Fig. 3).
//
// The correlator slices each incoming 16-bit I/Q sample to its sign bit
// (1-bit signed, 90° phase resolution) and correlates the sign sequences
// against two banks of 64 3-bit signed coefficients (I and Q). The two
// partial correlations are combined into a confidence-weighted magnitude
// metric:
//
//	metric = (sI·cI − sQ·cQ)² + (sQ·cI + sI·cQ)²
//
// which is |Σ sign(x[n]) · conj(c[n])|² computed in 1-bit × 3-bit integer
// arithmetic, exactly what the FPGA block computes. A detection triggers
// when the metric crosses a user-selected threshold.
package xcorr

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fixed"
	"repro/internal/fpga"
)

// Length is the fixed correlation window of the hardware design: 64 samples
// at the 25 MSPS digital sampling rate (2.56 µs of signal). The paper's §5
// limitation discussion notes this window cannot be changed at runtime.
const Length = 64

// DetectionCycles is the pipeline latency from the start of a matching
// transmission to the correlator trigger: the full 64-sample window must
// fill, i.e. 64 samples × 4 clock cycles = 256 cycles = 2.56 µs
// (paper §3.1: Txcorr_det).
const DetectionCycles = Length * fpga.CyclesPerSample

// MaxMetric is the largest metric value the datapath can produce:
// each partial sum is at most 64 · 2 · 4 = 512, so the metric tops out at
// 2 · 512² = 524288, comfortably inside the 32-bit register width.
const MaxMetric = 2 * 512 * 512

// bitplanes is one coefficient bank decomposed for the popcount kernel.
// Because the sliced signs are ±1 and coefficients are 3-bit signed, the
// dot product Σ s[k]·c[k] can be computed without any multiplies:
//
//	s·c = sign(s)·sign(c)·|c|, and sign(s)·sign(c) = −1 ⟺ signbit(s) XOR signbit(c)
//
// so with the 64 sign bits of the history packed into one uint64 word, the
// 64 coefficient sign bits in neg, and |c| split into its three magnitude
// bit-planes mag[b] (bit k of mag[b] = bit b of |c[k]|), the whole 64-tap
// sum collapses to
//
//	Σ s·c = Σ_b 2^b·(popcount(mag[b]) − 2·popcount((signs XOR neg) AND mag[b]))
//
// which is bit-exact against the scalar multiply-accumulate (Reference).
type bitplanes struct {
	neg  uint64    // bit k set ⟺ coeff[k] < 0
	mag  [3]uint64 // magnitude bit-planes; |coeff| ≤ 4 needs exactly 3
	base int32     // Σ|coeff| = Σ_b 2^b·popcount(mag[b])
}

func makeBitplanes(bank []fixed.Coeff3) bitplanes {
	var b bitplanes
	for k, c := range bank {
		v := int32(c)
		if v < 0 {
			b.neg |= 1 << k
			v = -v
		}
		for p := 0; p < 3; p++ {
			if v&(1<<p) != 0 {
				b.mag[p] |= 1 << k
			}
		}
		b.base += v
	}
	return b
}

// dot computes Σ s[k]·c[k] over a full 64-sample window, given the XOR of
// the packed sign history with the bank's coefficient sign mask.
func (b *bitplanes) dot(x uint64) int32 {
	p := bits.OnesCount64(x&b.mag[0]) +
		2*bits.OnesCount64(x&b.mag[1]) +
		4*bits.OnesCount64(x&b.mag[2])
	return b.base - int32(2*p)
}

// dotMasked computes the same sum restricted to the valid window positions,
// used while the delay line is still filling: taps whose history slot has
// not been written yet contribute 0, exactly like the zeroed int8 entries
// of the scalar reference.
func (b *bitplanes) dotMasked(x, valid uint64) int32 {
	m0, m1, m2 := b.mag[0]&valid, b.mag[1]&valid, b.mag[2]&valid
	base := bits.OnesCount64(m0) + 2*bits.OnesCount64(m1) + 4*bits.OnesCount64(m2)
	p := bits.OnesCount64(x&m0) + 2*bits.OnesCount64(x&m1) + 4*bits.OnesCount64(x&m2)
	return int32(base - 2*p)
}

// Correlator is the streaming hardware cross-correlator. It consumes one
// quantized I/Q sample per baseband sample tick and reports the metric and
// trigger decision. Not safe for concurrent use; the register bus layer
// serializes host access.
//
// Internally it runs the packed popcount kernel: the 64-sample sign history
// lives in two rotating uint64 masks and each coefficient bank in sign/
// magnitude bit-planes, so the four partial sums cost a handful of XOR/AND/
// popcount word operations instead of 256 multiplies per sample. The
// Reference type keeps the original scalar loop; the two are bit-exact
// against each other for every input (see the differential and fuzz tests).
type Correlator struct {
	bankI bitplanes
	bankQ bitplanes

	signI uint64 // bit k ⟺ sample aligned with coefficient k is negative
	signQ uint64
	valid uint64 // bit k ⟺ that history slot holds a consumed sample
	warm  int    // samples consumed, saturates at Length

	threshold uint32
	metric    uint32
}

// New returns a correlator with all-zero coefficients (never triggers) and
// threshold at maximum.
func New() *Correlator {
	return &Correlator{threshold: math.MaxUint32}
}

// SetCoefficients loads the two 64-tap 3-bit coefficient banks, as the host
// does over the user register bus. Both banks must have exactly Length taps.
func (c *Correlator) SetCoefficients(i, q []fixed.Coeff3) error {
	if len(i) != Length || len(q) != Length {
		return fmt.Errorf("xcorr: coefficient banks must be %d taps, got %d/%d",
			Length, len(i), len(q))
	}
	c.bankI = makeBitplanes(i)
	c.bankQ = makeBitplanes(q)
	return nil
}

// SetThreshold sets the trigger comparison threshold on the squared metric.
func (c *Correlator) SetThreshold(t uint32) { c.threshold = t }

// Reset clears the sample history (but keeps coefficients and threshold).
func (c *Correlator) Reset() {
	c.signI = 0
	c.signQ = 0
	c.valid = 0
	c.warm = 0
	c.metric = 0
}

// Process consumes one baseband sample and returns the correlation metric
// and whether the trigger comparator fired on this sample.
func (c *Correlator) Process(s fixed.IQ) (metric uint32, trigger bool) {
	// The oldest sample aligns with coefficient 0 and the newest with
	// coefficient 63, so each new sample shifts every history bit one
	// coefficient position down and lands in bit 63. The sign bit of the
	// int16 is exactly the 1-bit slicer of the hardware.
	c.signI = c.signI>>1 | uint64(uint16(s.I))>>15<<63
	c.signQ = c.signQ>>1 | uint64(uint16(s.Q))>>15<<63

	var sumII, sumQQ, sumQI, sumIQ int32
	if c.warm < Length {
		c.warm++
		c.valid = c.valid>>1 | 1<<63
		v := c.valid
		sumII = c.bankI.dotMasked(c.signI^c.bankI.neg, v)
		sumQQ = c.bankQ.dotMasked(c.signQ^c.bankQ.neg, v)
		sumQI = c.bankI.dotMasked(c.signQ^c.bankI.neg, v)
		sumIQ = c.bankQ.dotMasked(c.signI^c.bankQ.neg, v)
	} else {
		sumII = c.bankI.dot(c.signI ^ c.bankI.neg)
		sumQQ = c.bankQ.dot(c.signQ ^ c.bankQ.neg)
		sumQI = c.bankI.dot(c.signQ ^ c.bankI.neg)
		sumIQ = c.bankQ.dot(c.signI ^ c.bankQ.neg)
	}
	// The coefficient banks already hold the conjugated template, so the
	// matched output is the plain complex product Σ s·c:
	// (sI + j·sQ)(cI + j·cQ) = (sI·cI − sQ·cQ) + j(sQ·cI + sI·cQ).
	re := sumII - sumQQ
	im := sumQI + sumIQ
	m := uint32(re*re) + uint32(im*im)
	c.metric = m
	// Hold off until the window has filled once so start-up garbage in the
	// delay line cannot fire the comparator.
	trigger = c.warm == Length && m >= c.threshold
	return m, trigger
}

// ProcessPacked is the block entry point of the correlator: it consumes n
// samples' worth of pre-packed sign bits (bit k of signI[w]/signQ[w] set ⟺
// sample w·64+k sliced negative, the layout fixed.QuantizeFused produces)
// and writes the per-sample trigger-level decisions into the level bitmap
// (bit k of level[w] ⟺ sample w·64+k crossed the threshold). Unused bits of
// the last level word are cleared.
//
// Instead of rotating the two uint64 sign histories once per sample, each
// sample's 64-bit window is extracted from two adjacent packed words with a
// pair of shifts, so the whole popcount kernel runs register-resident over
// the block. Metric, trigger decisions and end-of-block state (sign
// histories, warm-up fill, last metric) are bit-identical to calling
// Process once per sample — the differential and fuzz suites pin this
// against both the per-sample kernel and the scalar Reference.
func (c *Correlator) ProcessPacked(signI, signQ []uint64, n int, level []uint64) {
	if n == 0 {
		return
	}
	words := (n + 63) >> 6
	_ = signI[:words]
	_ = signQ[:words]
	_ = level[:words]
	// carries hold the 64 sign bits preceding the current word: the
	// pre-block rotating histories for word 0, then the previous packed
	// word.
	carryI, carryQ := c.signI, c.signQ
	negI, negQ := c.bankI.neg, c.bankQ.neg
	thr := c.threshold
	// Bitplane words live in locals so the four dot products of the hot loop
	// stay register-resident (mi/mq are the magnitude planes, bi/bq the
	// Σ|coeff| bases).
	mi0, mi1, mi2, bi := c.bankI.mag[0], c.bankI.mag[1], c.bankI.mag[2], c.bankI.base
	mq0, mq1, mq2, bq := c.bankQ.mag[0], c.bankQ.mag[1], c.bankQ.mag[2], c.bankQ.base
	var histI, histQ uint64
	var m uint32
	for w := 0; w < words; w++ {
		wordI, wordQ := signI[w], signQ[w]
		count := n - w<<6
		if count > 64 {
			count = 64
		}
		var lvl uint64
		k := 0
		// Cold loop: the delay line is still filling, so taps beyond the
		// consumed history are masked out exactly like the per-sample path.
		for ; k < count && c.warm < Length; k++ {
			histI = wordI<<(63-uint(k)) | carryI>>(uint(k)+1)
			histQ = wordQ<<(63-uint(k)) | carryQ>>(uint(k)+1)
			c.warm++
			c.valid = c.valid>>1 | 1<<63
			v := c.valid
			sumII := c.bankI.dotMasked(histI^negI, v)
			sumQQ := c.bankQ.dotMasked(histQ^negQ, v)
			sumQI := c.bankI.dotMasked(histQ^negI, v)
			sumIQ := c.bankQ.dotMasked(histI^negQ, v)
			re := sumII - sumQQ
			im := sumQI + sumIQ
			m = uint32(re*re) + uint32(im*im)
			if c.warm == Length && m >= thr {
				lvl |= 1 << k
			}
		}
		// Hot loop: full 64-tap windows, no masking, no per-sample branches
		// beyond the comparator itself. Template-derived banks quantize to
		// |c| ≤ 3 and never populate the weight-4 magnitude plane, so the
		// common case runs an 8-popcount kernel; popcount issues on a single
		// execution port, making the plane count the loop's critical
		// resource. Banks loaded raw over the register bus can carry −4 and
		// take the full 12-popcount path.
		if mi2|mq2 == 0 {
			for ; k < count; k++ {
				histI = wordI<<(63-uint(k)) | carryI>>(uint(k)+1)
				histQ = wordQ<<(63-uint(k)) | carryQ>>(uint(k)+1)
				xII := histI ^ negI
				xQQ := histQ ^ negQ
				xQI := histQ ^ negI
				xIQ := histI ^ negQ
				sumII := bi - int32(2*(bits.OnesCount64(xII&mi0)+
					2*bits.OnesCount64(xII&mi1)))
				sumQQ := bq - int32(2*(bits.OnesCount64(xQQ&mq0)+
					2*bits.OnesCount64(xQQ&mq1)))
				sumQI := bi - int32(2*(bits.OnesCount64(xQI&mi0)+
					2*bits.OnesCount64(xQI&mi1)))
				sumIQ := bq - int32(2*(bits.OnesCount64(xIQ&mq0)+
					2*bits.OnesCount64(xIQ&mq1)))
				re := sumII - sumQQ
				im := sumQI + sumIQ
				m = uint32(re*re) + uint32(im*im)
				if m >= thr {
					lvl |= 1 << k
				}
			}
		} else {
			for ; k < count; k++ {
				histI = wordI<<(63-uint(k)) | carryI>>(uint(k)+1)
				histQ = wordQ<<(63-uint(k)) | carryQ>>(uint(k)+1)
				xII := histI ^ negI
				xQQ := histQ ^ negQ
				xQI := histQ ^ negI
				xIQ := histI ^ negQ
				sumII := bi - int32(2*(bits.OnesCount64(xII&mi0)+
					2*bits.OnesCount64(xII&mi1)+4*bits.OnesCount64(xII&mi2)))
				sumQQ := bq - int32(2*(bits.OnesCount64(xQQ&mq0)+
					2*bits.OnesCount64(xQQ&mq1)+4*bits.OnesCount64(xQQ&mq2)))
				sumQI := bi - int32(2*(bits.OnesCount64(xQI&mi0)+
					2*bits.OnesCount64(xQI&mi1)+4*bits.OnesCount64(xQI&mi2)))
				sumIQ := bq - int32(2*(bits.OnesCount64(xIQ&mq0)+
					2*bits.OnesCount64(xIQ&mq1)+4*bits.OnesCount64(xIQ&mq2)))
				re := sumII - sumQQ
				im := sumQI + sumIQ
				m = uint32(re*re) + uint32(im*im)
				if m >= thr {
					lvl |= 1 << k
				}
			}
		}
		level[w] = lvl
		carryI, carryQ = wordI, wordQ
	}
	c.signI, c.signQ = histI, histQ
	c.metric = m
}

// Resources reports the synthesized utilization of the cross-correlator
// block on the N210's Spartan-3A DSP (paper Fig. 3 inset).
func (c *Correlator) Resources() fpga.Resources {
	return fpga.Resources{Slices: 2613, FFs: 2647, BRAMs: 12, LUTs: 2818, DSP48s: 2}
}

// CoefficientsFromTemplate generates the two 3-bit coefficient banks from a
// complex baseband preamble template, the offline host-side generation step
// of §2.3. The template is conjugated (matched filter) and each component
// quantized to the 3-bit signed grid after peak normalization. Templates
// shorter than Length are zero-padded at the end; longer templates use their
// first Length samples — this truncation is exactly the paper's "orthogonal
// code correlated across its first 2.56 µs" effect for long codes.
func CoefficientsFromTemplate(tpl []complex128) (i, q []fixed.Coeff3) {
	re := make([]float64, Length)
	im := make([]float64, Length)
	n := min(len(tpl), Length)
	peak := 0.0
	for k := 0; k < n; k++ {
		re[k] = real(tpl[k])
		im[k] = -imag(tpl[k]) // conjugate for matched filtering
		peak = math.Max(peak, math.Max(math.Abs(re[k]), math.Abs(im[k])))
	}
	// Both rails share one normalization: scaling them independently would
	// blow the numerically-empty rail of a (near-)real template up to full
	// scale and fill the coefficient bank with quantized noise.
	i = make([]fixed.Coeff3, Length)
	q = make([]fixed.Coeff3, Length)
	if peak == 0 {
		return i, q
	}
	for k := 0; k < Length; k++ {
		i[k] = fixed.QuantizeCoeff(re[k] / peak)
		q[k] = fixed.QuantizeCoeff(im[k] / peak)
	}
	return i, q
}

// IdealPeakMetric estimates the metric the correlator would produce when the
// template itself (noiselessly) fills the window, useful for picking
// thresholds as a fraction of the achievable peak.
func IdealPeakMetric(tpl []complex128) uint32 {
	i, q := CoefficientsFromTemplate(tpl)
	c := New()
	if err := c.SetCoefficients(i, q); err != nil {
		panic(err)
	}
	var peak uint32
	for k := 0; k < min(len(tpl), Length); k++ {
		m, _ := c.Process(fixed.Quantize(tpl[k]))
		if m > peak {
			peak = m
		}
	}
	// Feed a few more samples in case pipeline alignment peaks late.
	for k := 0; k < Length && k < len(tpl)-Length; k++ {
		m, _ := c.Process(fixed.Quantize(tpl[Length+k]))
		if m > peak {
			peak = m
		}
	}
	return peak
}

// NoiseMetricVariance returns the per-rail variance V of the correlator
// output when the input is wideband noise: the sliced signs are i.i.d. ±1,
// so both the real and imaginary partial sums are zero-mean with variance
// V = Σ(cI² + cQ²), and the metric is V·χ²₂ distributed.
func NoiseMetricVariance(i, q []fixed.Coeff3) float64 {
	var v float64
	for k := 0; k < min(len(i), len(q)); k++ {
		v += float64(i[k])*float64(i[k]) + float64(q[k])*float64(q[k])
	}
	return v
}

// ThresholdForFARate returns the trigger threshold that yields the target
// false-alarm rate (triggers per second) on a noise-only input at the
// 25 MSPS sample rate, using the χ²₂ tail P(metric > T) = exp(−T/2V).
// This reproduces the §3.2 methodology of calibrating thresholds against
// terminated-input trigger counts.
func ThresholdForFARate(i, q []fixed.Coeff3, faPerSec float64) uint32 {
	v := NoiseMetricVariance(i, q)
	if v == 0 || faPerSec <= 0 {
		return math.MaxUint32
	}
	p := faPerSec / float64(fpga.SampleRateHz)
	t := -2 * v * math.Log(p)
	if t < 1 {
		t = 1
	}
	if t > float64(MaxMetric) {
		return MaxMetric
	}
	return uint32(t)
}
