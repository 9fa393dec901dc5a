// Package fixed models the fixed-point numeric formats of the simulated
// USRP N210 receive chain: the 16-bit signed I/Q samples that the DDC hands
// to the custom DSP core, and the 3-bit signed cross-correlation coefficients
// the WARP-derived correlator uses (paper §2.3).
//
// Keeping quantization in its own package lets the detectors operate on
// exactly the integer values the FPGA would see, so effects like sign-bit
// slicing and coefficient quantization are reproduced bit-for-bit rather
// than approximated in floating point.
package fixed

import (
	"fmt"
	"math"
)

// FullScale is the int16 full-scale magnitude used by the simulated ADC/DDC.
// A floating-point amplitude of 1.0 maps to this code.
const FullScale = 32767

// IQ is one 16-bit complex baseband sample as seen on the FPGA user bus.
type IQ struct {
	I int16
	Q int16
}

// Quantize converts a floating-point complex sample (nominal range ±1.0)
// into a 16-bit I/Q pair, saturating out-of-range values like the ADC does.
func Quantize(x complex128) IQ {
	return IQ{I: sat16(real(x) * FullScale), Q: sat16(imag(x) * FullScale)}
}

// QuantizeFused is the single-sweep block quantizer of the SoA datapath: it
// converts src into separate I and Q int16 planes and packs the I/Q sign
// bits 64 per uint64 word (bit k of word w ⟺ sample w·64+k is negative, the
// 1-bit MSB slice of the cross-correlator).
//
// iPlane and qPlane must be at least len(src) long; signI and signQ must
// hold at least ⌈len(src)/64⌉ words. Unused bits of the last sign word are
// left zero. The fusion exists so that a block whose energy differentiator
// can fire touches the input once: the differentiator reads the planes and
// the packed correlator the sign words this sweep produces. A block that
// needs only the sign words runs SignBits instead.
func QuantizeFused(src []complex128, iPlane, qPlane []int16, signI, signQ []uint64) {
	n := len(src)
	if n == 0 {
		return
	}
	_ = iPlane[:n]
	_ = qPlane[:n]
	words := (n + 63) / 64
	_ = signI[:words]
	_ = signQ[:words]
	for base, w := 0, 0; base < n; base, w = base+64, w+1 {
		count := n - base
		if count > 64 {
			count = 64
		}
		var sI, sQ uint64
		for k := 0; k < count; k++ {
			v := src[base+k]
			// Round-half-away-from-zero spelled out without math.Round: for
			// 0.5 ≤ |r| < 32767.5 the truncation of r ± 0.5 is exact (the
			// addition cannot round across an integer boundary there), for
			// |r| < 0.5 the result is 0 — which also catches ±(0.5 − 2⁻⁵⁴),
			// the one double where fl(r+0.5) rounds up to 1 — and the rare
			// saturation zone falls back to the scalar sat16. Bit-identical
			// to Quantize for every input, including NaN and ±Inf.
			ri := real(v) * FullScale
			rq := imag(v) * FullScale
			var i16, q16 int16
			if ai := math.Abs(ri); ai >= 0.5 {
				if ai < 32767.5 {
					i16 = int16(ri + math.Copysign(0.5, ri))
				} else {
					i16 = sat16(ri)
				}
			}
			if aq := math.Abs(rq); aq >= 0.5 {
				if aq < 32767.5 {
					q16 = int16(rq + math.Copysign(0.5, rq))
				} else {
					q16 = sat16(rq)
				}
			}
			iPlane[base+k] = i16
			qPlane[base+k] = q16
			sI |= uint64(uint16(i16)) >> 15 << k
			sQ |= uint64(uint16(q16)) >> 15 << k
		}
		signI[w] = sI
		signQ[w] = sQ
	}
}

// SignBits packs the I/Q sign bits of src 64 per uint64 word exactly as
// QuantizeFused does, without producing the int16 planes: bit k of
// signI[w] is set ⟺ Quantize(x).I is negative for x = src[w·64+k], which
// holds ⟺ real(x)·FullScale ≤ −0.5 (rounding half away from zero sends
// −0.5 to −1, saturation keeps the sign, and NaN compares false and
// quantizes to 0).
// signI and signQ must hold at least ⌈len(src)/64⌉ words; unused bits of
// the last word are left zero. It is the block datapath's quantizer while
// only the correlator reads every sample. On amd64 the whole words go
// through an SSE2 loop (signWords), the last partial word through the Go
// loop.
func SignBits(src []complex128, signI, signQ []uint64) {
	n := len(src)
	words := (n + 63) / 64
	_ = signI[:words]
	_ = signQ[:words]
	w := 0
	if signKernel {
		w = n / 64
		signWords(src[:w*64], signI[:w], signQ[:w])
	}
	for ; w < words; w++ {
		blk := src[w*64 : min(n, w*64+64)]
		// Last sample first, each shifted in at the bottom, so sample k
		// ends at bit k with no variable shift count.
		var sI, sQ uint64
		for k := len(blk) - 1; k >= 0; k-- {
			sI = sI<<1 | negative(real(blk[k]))
			sQ = sQ<<1 | negative(imag(blk[k]))
		}
		signI[w], signQ[w] = sI, sQ
	}
}

// negative is 1 when x quantizes to a negative code and 0 otherwise,
// written so the compiler emits a flag set instead of a branch: the sign of
// noise is a coin flip no predictor can learn.
func negative(x float64) uint64 {
	var b uint64
	if x*FullScale <= -0.5 {
		b = 1
	}
	return b
}

// Complex converts the sample back to floating point in ±1.0 range.
func (s IQ) Complex() complex128 {
	return complex(float64(s.I)/FullScale, float64(s.Q)/FullScale)
}

// Energy returns I²+Q² as a uint64, matching the FPGA's x² energy reading
// (paper Fig. 4: x[n] computed from the incoming I/Q pair).
func (s IQ) Energy() uint64 {
	return uint64(int64(s.I)*int64(s.I) + int64(s.Q)*int64(s.Q))
}

// SignBit returns the 1-bit signed slicing of the sample used by the
// cross-correlator (paper Fig. 3: "Slice 1 bit signed MSB"): +1 for
// non-negative, -1 for negative, independently for I and Q.
func (s IQ) SignBit() (i, q int8) {
	i, q = 1, 1
	if s.I < 0 {
		i = -1
	}
	if s.Q < 0 {
		q = -1
	}
	return i, q
}

func sat16(v float64) int16 {
	r := math.Round(v)
	switch {
	case r > 32767:
		return 32767
	case r < -32768:
		return -32768
	default:
		return int16(r)
	}
}

// Coeff3 is a 3-bit signed correlator coefficient in [-4, 3], the format
// loaded over the user register bus into the correlator's coefficient banks.
type Coeff3 int8

// Coeff3Min and Coeff3Max bound the representable 3-bit signed range.
const (
	Coeff3Min Coeff3 = -4
	Coeff3Max Coeff3 = 3
)

// NewCoeff3 clamps v to the representable range.
func NewCoeff3(v int) Coeff3 {
	switch {
	case v < int(Coeff3Min):
		return Coeff3Min
	case v > int(Coeff3Max):
		return Coeff3Max
	default:
		return Coeff3(v)
	}
}

// QuantizeCoeff maps a floating-point coefficient in [-1, 1] to the 3-bit
// signed grid, scaling so that ±1.0 uses the full positive range (±3) to keep
// the quantization symmetric, as the reference design's offline coefficient
// generator does.
func QuantizeCoeff(v float64) Coeff3 {
	return NewCoeff3(int(math.Round(v * 3)))
}

// Pack packs the coefficient into the 3-bit two's-complement field used on
// the 32-bit register bus (bits 2..0).
func (c Coeff3) Pack() uint32 {
	return uint32(uint8(int8(c))) & 0x7
}

// UnpackCoeff3 decodes a 3-bit two's-complement field.
func UnpackCoeff3(bits uint32) Coeff3 {
	v := int8(bits & 0x7)
	if v >= 4 {
		v -= 8
	}
	return Coeff3(v)
}

func (c Coeff3) String() string { return fmt.Sprintf("%+d", int8(c)) }
