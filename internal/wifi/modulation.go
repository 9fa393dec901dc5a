package wifi

import (
	"fmt"
	"math"
)

// Constellation identifies the subcarrier modulation of a rate.
type Constellation uint8

// The four OFDM constellations.
const (
	BPSK Constellation = iota
	QPSK
	QAM16
	QAM64
)

func (c Constellation) String() string {
	switch c {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	default:
		return fmt.Sprintf("Constellation(%d)", uint8(c))
	}
}

// Normalization factors K_MOD (§17.3.5.7) giving unit average symbol power,
// indexed by constellation.
var kmodTable = [...]float64{
	BPSK:  1,
	QPSK:  1 / math.Sqrt2,
	QAM16: 1 / math.Sqrt(10),
	QAM64: 1 / math.Sqrt(42),
}

// kmod returns the constellation's K_MOD, or 0 for an unknown one (whose
// callers then panic or return, as for any unknown constellation).
func (c Constellation) kmod() float64 {
	if int(c) < len(kmodTable) {
		return kmodTable[c]
	}
	return 0
}

// gray2 maps 1 bit to a PAM-2 level, gray4/gray8 map 2/3 bits (Gray coded,
// per Figure 116 of the standard) to PAM-4/PAM-8 levels.
func gray2(b0 uint8) float64 {
	if b0 == 0 {
		return -1
	}
	return 1
}

func gray4(b0, b1 uint8) float64 {
	// b0 b1: 00->-3 01->-1 11->+1 10->+3
	switch b0<<1 | b1 {
	case 0b00:
		return -3
	case 0b01:
		return -1
	case 0b11:
		return 1
	default:
		return 3
	}
}

func gray8(b0, b1, b2 uint8) float64 {
	// 000->-7 001->-5 011->-3 010->-1 110->+1 111->+3 101->+5 100->+7
	switch b0<<2 | b1<<1 | b2 {
	case 0b000:
		return -7
	case 0b001:
		return -5
	case 0b011:
		return -3
	case 0b010:
		return -1
	case 0b110:
		return 1
	case 0b111:
		return 3
	case 0b101:
		return 5
	default:
		return 7
	}
}

// Map converts bpsc bits into one constellation point with unit average
// power. bits must hold exactly c's bits per point.
func (c Constellation) Map(bits []uint8) complex128 {
	k := c.kmod()
	switch c {
	case BPSK:
		return complex(gray2(bits[0])*k, 0)
	case QPSK:
		return complex(gray2(bits[0])*k, gray2(bits[1])*k)
	case QAM16:
		return complex(gray4(bits[0], bits[1])*k, gray4(bits[2], bits[3])*k)
	case QAM64:
		return complex(gray8(bits[0], bits[1], bits[2])*k,
			gray8(bits[3], bits[4], bits[5])*k)
	default:
		panic(fmt.Sprintf("wifi: unknown constellation %v", c))
	}
}

// Bits returns the number of bits per constellation point.
func (c Constellation) Bits() int {
	switch c {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		return 0
	}
}

func slicePAM4(v float64) (uint8, uint8) {
	switch {
	case v < -2:
		return 0, 0
	case v < 0:
		return 0, 1
	case v < 2:
		return 1, 1
	default:
		return 1, 0
	}
}

func slicePAM8(v float64) (uint8, uint8, uint8) {
	switch {
	case v < -6:
		return 0, 0, 0
	case v < -4:
		return 0, 0, 1
	case v < -2:
		return 0, 1, 1
	case v < 0:
		return 0, 1, 0
	case v < 2:
		return 1, 1, 0
	case v < 4:
		return 1, 1, 1
	case v < 6:
		return 1, 0, 1
	default:
		return 1, 0, 0
	}
}

// Demap hard-slices one equalized constellation point into bpsc bits,
// appending to dst and returning it.
func (c Constellation) Demap(p complex128, dst []uint8) []uint8 {
	k := c.kmod()
	re, im := real(p)/k, imag(p)/k
	switch c {
	case BPSK:
		return append(dst, b2u(re >= 0))
	case QPSK:
		return append(dst, b2u(re >= 0), b2u(im >= 0))
	case QAM16:
		b0, b1 := slicePAM4(re)
		b2, b3 := slicePAM4(im)
		return append(dst, b0, b1, b2, b3)
	case QAM64:
		b0, b1, b2 := slicePAM8(re)
		b3, b4, b5 := slicePAM8(im)
		return append(dst, b0, b1, b2, b3, b4, b5)
	default:
		panic(fmt.Sprintf("wifi: unknown constellation %v", c))
	}
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
