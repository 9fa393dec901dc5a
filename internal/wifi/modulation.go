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

// mapTable[c][v] is constellation c's unit-power point for the bit group
// v, its first bit the most significant: Gray-coded PAM levels (Figure 116
// of the standard) on I and Q, each times K_MOD.
var mapTable [len(kmodTable)][64]complex128

func init() {
	for c := range mapTable {
		n, k := Constellation(c).Bits(), kmodTable[c]
		for v := 0; v < 1<<n; v++ {
			if n == 1 {
				mapTable[c][v] = complex(pamLevel(v, 1)*k, 0)
				continue
			}
			h := n / 2
			mapTable[c][v] = complex(pamLevel(v>>h, h)*k, pamLevel(v&(1<<h-1), h)*k)
		}
	}
}

// pamLevel is the level of the Gray-coded m-bit group g: the odd integers
// from −(2^m − 1) to 2^m − 1 in the order of g's Gray decoding.
func pamLevel(g, m int) float64 {
	i := g
	for s := 1; s < m; s++ {
		i ^= g >> s
	}
	return float64(2*i - (1<<m - 1))
}

// Map converts bpsc bits into one constellation point with unit average
// power. bits must hold exactly c's bits per point.
func (c Constellation) Map(bits []uint8) complex128 {
	if int(c) >= len(mapTable) {
		panic(fmt.Sprintf("wifi: unknown constellation %v", c))
	}
	v := 0
	for _, b := range bits[:c.Bits()] {
		v = v<<1 | int(b&1)
	}
	return mapTable[c][v&63]
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
