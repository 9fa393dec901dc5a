package wifi

import (
	"fmt"
	"math"
)

// Soft-decision receive path: instead of hard-slicing each equalized
// subcarrier to bits, the demapper emits log-likelihood ratios and the
// Viterbi decoder accumulates them, buying roughly 2 dB over hard
// decisions on AWGN and substantially more resilience when a jamming burst
// corrupts a contiguous run of symbols. The paper's receivers are
// commodity hardware (hard or soft unknown); this path exists as the
// "improved victim" ablation — how much harder does a soft receiver make
// the jammer's job?

// LLR is a clipped integer log-likelihood ratio: positive favors bit 0.
type LLR int8

// llrClip bounds the integer LLR magnitude.
const llrClip = 31

// llrErasure marks a punctured position for the soft decoder.
const llrErasure LLR = 0

func clipLLR(v float64) LLR {
	switch {
	case v > llrClip:
		return llrClip
	case v < -llrClip:
		return -llrClip
	default:
		return LLR(math.Round(v))
	}
}

// pamLLR computes the max-log LLR of bit index b (MSB first within the PAM
// label) for an observed PAM coordinate v over levels with Gray labels, at
// a noise scale that normalizes typical magnitudes into the clip range.
func pamLLR(v float64, levels []float64, labels []uint8, bit int, scale float64) LLR {
	best0, best1 := math.Inf(1), math.Inf(1)
	for i, lv := range levels {
		d := (v - lv) * (v - lv)
		if labels[i]>>bit&1 == 0 {
			if d < best0 {
				best0 = d
			}
		} else if d < best1 {
			best1 = d
		}
	}
	return clipLLR((best1 - best0) * scale)
}

// PAM constellations in Gray-label order matching modulation.go.
var (
	pam2Levels = []float64{-1, 1}
	pam2Labels = []uint8{0, 1}
	pam4Levels = []float64{-3, -1, 1, 3}
	pam4Labels = []uint8{0b00, 0b01, 0b11, 0b10}
	pam8Levels = []float64{-7, -5, -3, -1, 1, 3, 5, 7}
	pam8Labels = []uint8{0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100}
)

// DemapSoft produces the constellation's LLRs for one equalized point,
// appended to dst. Bit order matches Demap.
func (c Constellation) DemapSoft(p complex128, dst []LLR) []LLR {
	k := c.kmod()
	re, im := real(p)/k, imag(p)/k
	switch c {
	case BPSK:
		return append(dst, pamLLR(re, pam2Levels, pam2Labels, 0, 8))
	case QPSK:
		return append(dst,
			pamLLR(re, pam2Levels, pam2Labels, 0, 8),
			pamLLR(im, pam2Levels, pam2Labels, 0, 8))
	case QAM16:
		return append(dst,
			pamLLR(re, pam4Levels, pam4Labels, 1, 4),
			pamLLR(re, pam4Levels, pam4Labels, 0, 4),
			pamLLR(im, pam4Levels, pam4Labels, 1, 4),
			pamLLR(im, pam4Levels, pam4Labels, 0, 4))
	case QAM64:
		return append(dst,
			pamLLR(re, pam8Levels, pam8Labels, 2, 2),
			pamLLR(re, pam8Levels, pam8Labels, 1, 2),
			pamLLR(re, pam8Levels, pam8Labels, 0, 2),
			pamLLR(im, pam8Levels, pam8Labels, 2, 2),
			pamLLR(im, pam8Levels, pam8Labels, 1, 2),
			pamLLR(im, pam8Levels, pam8Labels, 0, 2))
	default:
		return dst
	}
}

// DemapSymbolPointsSoft converts 48 equalized points into one symbol's
// interleaved LLRs.
func DemapSymbolPointsSoft(points []complex128, r Rate) []LLR {
	c := r.Constellation()
	out := make([]LLR, 0, r.CodedBitsPerSymbol())
	for _, p := range points {
		out = c.DemapSoft(p, out)
	}
	return out
}

// DeinterleaveSoft inverts the block interleaver on LLRs, gathering through
// the same per-rate permutation tables the hard path uses.
func DeinterleaveSoft(llrs []LLR, r Rate) []LLR {
	perm := interleavePerm[r]
	out := make([]LLR, len(perm))
	for k, j := range perm {
		out[k] = llrs[j]
	}
	return out
}

// depunctureSoft reinserts zero-LLR erasures at the punctured positions.
func depunctureSoft(llrs []LLR, p Puncture, numDataBits int) ([]LLR, error) {
	mask := p.pattern()
	need := numDataBits * 2 * p.kept() / len(mask)
	if len(llrs) < need {
		return nil, errShortSoft(len(llrs), need)
	}
	out := make([]LLR, 0, numDataBits*2)
	src, pos := 0, 0
	for len(out) < numDataBits*2 {
		if mask[pos] {
			out = append(out, llrs[src])
			src++
		} else {
			out = append(out, llrErasure)
		}
		pos++
		if pos == len(mask) {
			pos = 0
		}
	}
	return out, nil
}

type errShortSoftT struct{ got, need int }

func errShortSoft(got, need int) error { return errShortSoftT{got, need} }
func (e errShortSoftT) Error() string {
	return fmt.Sprintf("wifi: soft decode has %d coded LLRs, needs %d", e.got, e.need)
}

// ViterbiDecodeSoft is the soft-decision counterpart of ViterbiDecode: the
// branch metric accumulates the LLR mass that contradicts each candidate
// coded bit, so confident wrong bits cost more than uncertain ones.
func ViterbiDecodeSoft(llrs []LLR, p Puncture, numDataBits int, terminated bool) ([]uint8, error) {
	seq, err := depunctureSoft(llrs, p, numDataBits)
	if err != nil {
		return nil, err
	}
	const inf = int32(1) << 30
	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
	prev := make([][numStates]uint8, numDataBits)

	cost := func(llr LLR, bit uint8) int32 {
		// llr > 0 favors bit 0: transmitting bit 1 against it costs llr.
		if bit == 1 {
			if llr > 0 {
				return int32(llr)
			}
			return 0
		}
		if llr < 0 {
			return int32(-llr)
		}
		return 0
	}

	for t := 0; t < numDataBits; t++ {
		lA, lB := seq[2*t], seq[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				ns := ((s << 1) | in) & (numStates - 1)
				bm := m + cost(lA, branchOut[s][in][0]) + cost(lB, branchOut[s][in][1])
				if bm < next[ns] {
					next[ns] = bm
					prev[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}
	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if metric[s] < metric[best] {
				best = s
			}
		}
	}
	out := make([]uint8, numDataBits)
	state := best
	for t := numDataBits - 1; t >= 0; t-- {
		out[t] = uint8(state & 1)
		state = int(prev[t][state])
	}
	return out, nil
}

// DemodulateSoft mirrors Demodulate with the soft-decision DATA path (the
// SIGNAL field stays hard — it is short, BPSK, and rate-1/2).
func DemodulateSoft(x []complex128, searchFrom, searchTo int) (*RxResult, error) {
	ltsStart, err := Sync(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	if len(x) < ltsStart+2*FFTSize+SymbolLen {
		return nil, fmt.Errorf("wifi: truncated frame after sync")
	}
	h := EstimateChannel(x[ltsStart:ltsStart+FFTSize],
		x[ltsStart+FFTSize:ltsStart+2*FFTSize])

	sigStart := ltsStart + 2*FFTSize
	sigPts := DisassembleSymbol(x[sigStart:sigStart+SymbolLen], h, 0)
	sigBits := Deinterleave(DemapSymbolPoints(sigPts, Rate6), Rate6)
	sigDec, err := ViterbiDecode(sigBits, Punct1_2, 24, true)
	if err != nil {
		return nil, err
	}
	rate, length, err := parseSignalField(sigDec)
	if err != nil {
		return nil, err
	}

	nsym := NumDataSymbols(rate, length)
	dataStart := sigStart + SymbolLen
	if len(x) < dataStart+nsym*SymbolLen {
		return nil, fmt.Errorf("wifi: frame truncated (%d of %d data symbols)",
			(len(x)-dataStart)/SymbolLen, nsym)
	}
	llrs := make([]LLR, 0, nsym*rate.CodedBitsPerSymbol())
	for s := 0; s < nsym; s++ {
		start := dataStart + s*SymbolLen
		pts := DisassembleSymbol(x[start:start+SymbolLen], h, 1+s)
		llrs = append(llrs, DeinterleaveSoft(DemapSymbolPointsSoft(pts, rate), rate)...)
	}
	nbits := nsym * rate.BitsPerSymbol()
	bits, err := ViterbiDecodeSoft(llrs, rate.Puncture(), nbits, false)
	if err != nil {
		return nil, err
	}
	state := RecoverSeed(bits[:7])
	NewScrambler(state).Process(bits[7:])
	for i := 0; i < 7; i++ {
		bits[i] = 0
	}
	psduBits := bits[ServiceBits : ServiceBits+8*length]
	return &RxResult{
		LTSIndex: ltsStart,
		Rate:     rate,
		Length:   length,
		PSDU:     BitsToBytes(psduBits),
	}, nil
}
