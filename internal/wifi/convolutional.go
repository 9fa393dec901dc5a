package wifi

import "fmt"

// The 802.11 convolutional code (§17.3.5.5): rate-1/2, constraint length 7,
// generators g0 = 133₈ and g1 = 171₈, with puncturing to rates 2/3 and 3/4.

// Code generator polynomials (octal 133, 171).
const (
	genA = 0o133
	genB = 0o171
	// numStates is 2^(K-1) for K=7.
	numStates = 64
)

// Puncture selects the puncturing pattern applied after the rate-1/2 mother
// code.
type Puncture uint8

// The three coding rates of the OFDM PHY.
const (
	Punct1_2 Puncture = iota // no puncturing
	Punct2_3                 // drop every 4th coded bit (B of odd pairs)
	Punct3_4                 // drop bits 3,4 of every 6 (A3/B2 pattern)
)

func (p Puncture) String() string {
	switch p {
	case Punct1_2:
		return "1/2"
	case Punct2_3:
		return "2/3"
	case Punct3_4:
		return "3/4"
	default:
		return fmt.Sprintf("Puncture(%d)", uint8(p))
	}
}

// punctPatterns holds the keep-mask over one puncturing period of the A,B
// output stream (interleaved A0 B0 A1 B1 ...), one shared table per rate.
// convEncodeInto and depunctureInto hit these on every frame; hoisting
// them to package level removes the per-call slice allocation the old
// pattern() paid.
var punctPatterns = [...][]bool{
	Punct1_2: {true, true},
	// Period 4 (2 input bits): keep A0 B0 A1, drop B1.
	Punct2_3: {true, true, true, false},
	// Period 6 (3 input bits): keep A0 B0 A1, drop B1, drop A2, keep B2.
	Punct3_4: {true, true, true, false, false, true},
}

// punctKept counts the kept positions per period, precomputed alongside the
// masks.
var punctKept = func() [len(punctPatterns)]int {
	var out [len(punctPatterns)]int
	for p, mask := range punctPatterns {
		for _, m := range mask {
			if m {
				out[p]++
			}
		}
	}
	return out
}()

// pattern returns the shared keep-mask for the rate. Callers must treat the
// returned slice as read-only.
func (p Puncture) pattern() []bool {
	if int(p) < len(punctPatterns) {
		return punctPatterns[p]
	}
	return punctPatterns[Punct1_2]
}

// kept returns the number of coded bits kept per puncturing period.
func (p Puncture) kept() int {
	if int(p) < len(punctKept) {
		return punctKept[p]
	}
	return punctKept[Punct1_2]
}

// parity7 returns the parity of the 7 low bits of v.
func parity7(v uint32) uint8 {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return uint8(v & 1)
}

// convEncodeInto encodes data bits with the rate-1/2 mother code, applies
// the puncturing pattern and appends the coded bits to out. The caller
// appends the 6 zero tail bits beforehand if trellis termination is wanted.
func convEncodeInto(out []uint8, bits []uint8, p Puncture) []uint8 {
	mask := p.pattern()
	var state uint32 // 6-bit shift register of previous inputs
	pos := 0
	for _, b := range bits {
		reg := (state << 1) | uint32(b&1)
		if mask[pos] {
			out = append(out, parity7(reg&genA))
		}
		if pos++; pos == len(mask) {
			pos = 0
		}
		if mask[pos] {
			out = append(out, parity7(reg&genB))
		}
		if pos++; pos == len(mask) {
			pos = 0
		}
		state = reg & 0x3F
	}
	return out
}

// branchPair packs the coded output pair (outA, outB) of the branch from
// each state on each input bit into a 2-bit index outA<<1|outB, the key
// into a step's branch-metric row. Computed once.
var branchPair [numStates][2]uint8

// bmLUT is the branch-metric lookup table: bmLUT[rA][rB][pair] is the
// Hamming cost of emitting output pair `pair` when the received coded pair
// is (rA, rB). Received values are 0, 1, erasure (2, free), or "unknown"
// (3, every branch pays 1): every out-of-alphabet input is clamped to 3,
// since it mismatches both coded values.
var bmLUT [4][4][4]int32

func init() {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := (uint32(s) << 1) | uint32(in)
			branchPair[s][in] = parity7(reg&genA)<<1 | parity7(reg&genB)
		}
	}
	cost := func(r int, out uint8) int32 {
		switch {
		case r == int(erasure):
			return 0
		case r == int(out):
			return 0
		default:
			return 1 // 0/1 mismatch, or out-of-alphabet (always mismatches)
		}
	}
	for rA := 0; rA < 4; rA++ {
		for rB := 0; rB < 4; rB++ {
			for pair := 0; pair < 4; pair++ {
				bmLUT[rA][rB][pair] = cost(rA, uint8(pair>>1)) + cost(rB, uint8(pair&1))
			}
		}
	}
}

// erasure marks a punctured (missing) coded bit position for the decoder.
const erasure uint8 = 2

// depunctureInto reinserts the erasure mark erased at the punctured
// positions, appending the 2·numDataBits stream to out, so the decoder can
// skip them in its metric. The hard path marks with erasure, the soft path
// with llrErasure.
func depunctureInto[T uint8 | LLR](out, coded []T, p Puncture, numDataBits int, erased T) ([]T, error) {
	mask := p.pattern()
	need := numDataBits * 2 * p.kept() / len(mask)
	if len(coded) < need {
		return nil, fmt.Errorf("wifi: %d coded bits, need %d for %d data bits at rate %v",
			len(coded), need, numDataBits, p)
	}
	src := 0
	pos := 0
	for n := 0; n < numDataBits*2; n++ {
		if mask[pos] {
			out = append(out, coded[src])
			src++
		} else {
			out = append(out, erased)
		}
		if pos++; pos == len(mask) {
			pos = 0
		}
	}
	return out, nil
}
