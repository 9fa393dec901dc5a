package wifi

import (
	"math"

	"repro/internal/dsp"
)

// Soft-decision back-end of the receiver: between RxCodec's shared header
// and finish, the DATA symbols are demapped to log-likelihood ratios
// instead of hard bits, and the reference trellis (trellis.decode)
// accumulates them, buying roughly 2 dB over hard decisions on AWGN and
// substantially more resilience when a jamming burst corrupts a contiguous
// run of symbols. The paper's receivers are commodity hardware (hard or
// soft unknown); this path exists as the "improved victim" ablation — how
// much harder does a soft receiver make the jammer's job?

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

// viterbiDecodeSoft decodes the depunctured LLR stream seq (2 per data
// bit, erasures 0) on the reference trellis tr. The branch metric accumulates the LLR
// mass that contradicts each candidate coded bit, so confident wrong bits
// cost more than uncertain ones.
func viterbiDecodeSoft(tr *trellis, seq []LLR, terminated bool) []uint8 {
	// cost prices sending bit against llr: llr > 0 favors bit 0, so
	// transmitting bit 1 against it costs llr, and vice versa.
	cost := func(llr LLR, bit int) int32 {
		if bit == 1 {
			return int32(max(llr, 0))
		}
		return int32(max(-llr, 0))
	}
	var row [4]int32
	return tr.decode(len(seq)/2, terminated, func(t int) *[4]int32 {
		lA, lB := seq[2*t], seq[2*t+1]
		for pair := range row {
			row[pair] = cost(lA, pair>>1) + cost(lB, pair&1)
		}
		return &row
	})
}

// rxFrameSoft is RxFrame with the soft-decision DATA path; the SIGNAL
// field stays hard. Its result aliases codec scratch like RxFrame's.
func (c *RxCodec) rxFrameSoft(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	data, err := c.header(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	rate := c.res.Rate
	con := rate.Constellation()
	nsym, cbps := len(data)/SymbolLen, rate.CodedBitsPerSymbol()
	c.llrs = grow(c.llrs, nsym*cbps)
	llrs := c.llrs
	for s := 0; s < nsym; s++ {
		disassembleSymbolInto(c.points[:], &c.freq, data[s*SymbolLen:(s+1)*SymbolLen], &c.h, 1+s)
		db := c.llrDB[:0]
		for _, p := range c.points {
			db = con.DemapSoft(p, db)
		}
		deinterleaveInto(llrs[s*cbps:(s+1)*cbps], db, rate)
	}
	nbits := nsym * rate.BitsPerSymbol()
	seq, err := depunctureInto(c.llrSeq[:0], llrs, rate.Puncture(), nbits, llrErasure)
	if err != nil {
		return nil, err
	}
	c.llrSeq = seq
	return c.finish(viterbiDecodeSoft(&c.trellis, seq, false)), nil
}

// DemodulateSoft mirrors Demodulate with the soft-decision DATA path. The
// returned result is a copy the caller owns.
func DemodulateSoft(x []complex128, searchFrom, searchTo int) (*RxResult, error) {
	c := rxPool.Get().(*RxCodec)
	defer rxPool.Put(c)
	return detach(c.rxFrameSoft(x, searchFrom, searchTo))
}
