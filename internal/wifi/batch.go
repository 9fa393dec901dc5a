package wifi

import (
	"fmt"
	"sync"

	"repro/internal/dsp"
)

// Frame codecs: the one transmitter and the one receiver of the modem.
//
// A TxCodec or RxCodec owns every scratch buffer one frame's worth of OFDM
// symbols needs — transform points, interleaver blocks, coded-bit streams
// and LLRs, Viterbi metrics and decision words — so the hard-decision path
// touches the allocator zero times once the grow-only slices have reached
// the frame size. Each codec chains the package's per-symbol steps
// (convEncodeInto, interleaveInto, mapSymbolBitsInto, assembleSymbolInto,
// and their inverses); batch_test.go pins TxFrame against an independent
// per-symbol composition of the same steps.
//
// The receiver is one pipeline with two decision back-ends: header (sync,
// channel estimate, the always-hard SIGNAL field, truncation checks), then
// either RxFrame's hard DATA path into the packed Viterbi decoder or
// rxFrameSoft's LLR DATA path into the soft trellis (soft.go), then finish
// (descramble and pack). Modulate, Demodulate and DemodulateSoft borrow
// sync.Pool-managed codecs and copy their results out.

// maxCBPS is the largest N_CBPS of any rate (64-QAM: 288 coded bits).
const maxCBPS = 288

// TxCodec carries the reusable transmit-side scratch.
type TxCodec struct {
	freq   [FFTSize]complex128
	points [NumDataCarriers]complex128
	il     [maxCBPS]uint8
	sig    [24]uint8
	bits   []uint8 // scrambled DATA-field bits, grow-only
	coded  []uint8 // punctured coded bits of one field, grow-only
}

var txPool = sync.Pool{New: func() any { return new(TxCodec) }}

// encodeSymbols codes, interleaves, maps and OFDM-assembles bits (already
// scrambled, tail zeroed) onto the end of dst, which must have capacity for
// every produced symbol. firstSymIndex sets the pilot polarity origin.
func (c *TxCodec) encodeSymbols(dst dsp.Samples, bits []uint8, r Rate, firstSymIndex int) dsp.Samples {
	if cap(c.coded) < 2*len(bits) {
		c.coded = make([]uint8, 0, 2*len(bits))
	}
	coded := convEncodeInto(c.coded[:0], bits, r.Puncture())
	c.coded = coded
	cbps := r.CodedBitsPerSymbol()
	nsym := len(coded) / cbps
	for s := 0; s < nsym; s++ {
		interleaveInto(c.il[:cbps], coded[s*cbps:(s+1)*cbps], r)
		mapSymbolBitsInto(c.points[:], c.il[:cbps], r)
		n := len(dst)
		dst = dst[:n+SymbolLen]
		assembleSymbolInto(dst[n:], &c.freq, c.points[:], firstSymIndex+s)
	}
	return dst
}

// TxFrame appends the complete PPDU baseband waveform for psdu to dst and
// returns the extended slice. Allocation free when dst has FrameDuration
// spare capacity and the codec has processed a frame this large before.
func (c *TxCodec) TxFrame(dst dsp.Samples, psdu []byte, cfg TxConfig) (dsp.Samples, error) {
	if !cfg.Rate.Valid() {
		return dst, fmt.Errorf("wifi: invalid rate %v", cfg.Rate)
	}
	if len(psdu) == 0 || len(psdu) > MaxPSDU {
		return dst, fmt.Errorf("wifi: PSDU length %d outside [1, %d]", len(psdu), MaxPSDU)
	}
	seed := cfg.ScramblerSeed & 0x7F
	if seed == 0 {
		seed = 0x5D // standard example seed 1011101
	}
	if need := len(dst) + FrameDuration(cfg.Rate, len(psdu)); cap(dst) < need {
		grown := make(dsp.Samples, len(dst), need)
		copy(grown, dst)
		dst = grown
	}

	dst = append(dst, preambleCached...)

	// SIGNAL: BPSK rate-1/2, not scrambled, own single symbol, pilot p_0.
	signalFieldInto(&c.sig, cfg.Rate, len(psdu))
	dst = c.encodeSymbols(dst, c.sig[:], Rate6, 0)

	// DATA: SERVICE + PSDU + tail + pad, scrambled (tail bits re-zeroed
	// after scrambling to terminate the trellis).
	nsym := NumDataSymbols(cfg.Rate, len(psdu))
	nbits := nsym * cfg.Rate.BitsPerSymbol()
	if cap(c.bits) < nbits {
		c.bits = make([]uint8, 0, nbits)
	}
	bits := c.bits[:0]
	for i := 0; i < ServiceBits; i++ {
		bits = append(bits, 0)
	}
	bits = bytesToBitsInto(bits, psdu)
	for len(bits) < nbits {
		bits = append(bits, 0) // tail + pad
	}
	c.bits = bits
	scr := Scrambler{state: seed}
	scr.Process(bits)
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		bits[tailStart+i] = 0
	}
	return c.encodeSymbols(dst, bits, cfg.Rate, 1), nil
}

// RxCodec carries the reusable receive-side scratch, including the packed
// Viterbi working set, the soft path's LLR streams and the sync
// correlation magnitudes.
type RxCodec struct {
	mags   []float64
	freq   [FFTSize]complex128
	f2     [FFTSize]complex128
	points [NumDataCarriers]complex128
	h      Channel
	db     [maxCBPS]uint8 // demapped (still interleaved) symbol bits
	deint  [maxCBPS]uint8 // deinterleaved SIGNAL bits
	sigDec [24]uint8
	coded  []uint8 // whole DATA field's deinterleaved coded bits
	bits   []uint8 // Viterbi output data bits
	psdu   []byte
	vit    viterbiScratch
	res    RxResult

	llrDB   [maxCBPS]LLR // soft-demapped (still interleaved) symbol LLRs
	llrs    []LLR        // whole DATA field's deinterleaved LLRs
	llrSeq  []LLR        // depunctured LLR stream (2 per data bit)
	trellis trellis      // the soft path's Viterbi storage
}

var rxPool = sync.Pool{New: func() any { return new(RxCodec) }}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sync locates the first long training symbol by correlating the window
// against the cached conjugated LTS taps and requiring the characteristic
// double peak 64 samples apart. It examines candidate start positions in
// [from, to).
func (c *RxCodec) sync(x dsp.Samples, from, to int) (int, error) {
	if from < 0 {
		from = 0
	}
	last := len(x) - (2*FFTSize + SymbolLen) // need LTS1+LTS2+SIGNAL after
	if to > last {
		to = last
	}
	if from >= to {
		return 0, ErrSync
	}
	// Correlation magnitude at every candidate offset in the window plus
	// one LTS length (for the second peak).
	c.mags = grow(c.mags, to-from+FFTSize+1)
	mags := c.mags
	lts := ltsConjCached
	for i := range mags {
		k := from + i
		var acc complex128
		for j := 0; j < FFTSize; j++ {
			acc += x[k+j] * lts[j]
		}
		mags[i] = real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	best, bestScore := -1, 0.0
	for i := 0; i+FFTSize < len(mags); i++ {
		score := mags[i] + mags[i+FFTSize]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, ErrSync
	}
	// Reject pure-noise "peaks": the LTS autocorrelation at the right lag
	// concentrates energy; require the peak to dominate the window median.
	var sum float64
	for _, m := range mags {
		sum += m
	}
	mean := sum / float64(len(mags))
	if bestScore < 4*mean {
		return 0, ErrSync
	}
	return from + best, nil
}

// header is the receiver front end both DATA back-ends share: sync in
// [searchFrom, searchTo), channel estimate, the hard-decoded SIGNAL field
// (short, BPSK and rate 1/2) and both truncation checks. It fills the
// codec's result except its PSDU and returns the DATA field's samples.
func (c *RxCodec) header(x dsp.Samples, searchFrom, searchTo int) (dsp.Samples, error) {
	ltsStart, err := c.sync(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	if len(x) < ltsStart+2*FFTSize+SymbolLen {
		return nil, fmt.Errorf("wifi: truncated frame after sync")
	}
	estimateChannelInto(&c.h, &c.freq, &c.f2,
		x[ltsStart:ltsStart+FFTSize], x[ltsStart+FFTSize:ltsStart+2*FFTSize])

	sigStart := ltsStart + 2*FFTSize
	disassembleSymbolInto(c.points[:], &c.freq, x[sigStart:sigStart+SymbolLen], &c.h, 0)
	db := demapSymbolPointsInto(c.db[:0], c.points[:], Rate6)
	sigCBPS := Rate6.CodedBitsPerSymbol()
	deinterleaveInto(c.deint[:sigCBPS], db, Rate6)
	seq, err := depunctureInto(c.vit.seq[:0], c.deint[:sigCBPS], Punct1_2, 24, erasure)
	if err != nil {
		return nil, err
	}
	c.vit.seq = seq
	c.vit.decode(seq, c.sigDec[:], true)
	rate, length, err := parseSignalField(c.sigDec[:])
	if err != nil {
		return nil, err
	}

	nsym := NumDataSymbols(rate, length)
	dataStart := sigStart + SymbolLen
	if len(x) < dataStart+nsym*SymbolLen {
		return nil, fmt.Errorf("wifi: frame truncated (%d of %d data symbols)",
			(len(x)-dataStart)/SymbolLen, nsym)
	}
	c.res = RxResult{LTSIndex: ltsStart, Rate: rate, Length: length}
	return x[dataStart : dataStart+nsym*SymbolLen], nil
}

// finish is the receiver tail both DATA back-ends share: it descrambles
// the decoded DATA bits in place (the first 7 carry the seed, as the
// SERVICE bits are zero) and packs the PSDU into codec scratch.
func (c *RxCodec) finish(bits []uint8) *RxResult {
	desc := Scrambler{state: RecoverSeed(bits[:7])}
	desc.Process(bits[7:])
	for i := 0; i < 7; i++ {
		bits[i] = 0
	}
	c.psdu = grow(c.psdu, c.res.Length)
	bitsToBytesInto(c.psdu, bits[ServiceBits:ServiceBits+8*c.res.Length])
	c.res.PSDU = c.psdu
	return &c.res
}

// RxFrame recovers one PPDU from the waveform with hard decisions,
// searching for the long preamble start in [searchFrom, searchTo). The
// returned RxResult (and its PSDU) alias codec scratch and are valid until
// the codec's next frame; Demodulate copies them out for callers that keep
// the data.
func (c *RxCodec) RxFrame(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	data, err := c.header(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	rate := c.res.Rate
	nsym, cbps := len(data)/SymbolLen, rate.CodedBitsPerSymbol()
	c.coded = grow(c.coded, nsym*cbps)
	coded := c.coded
	for s := 0; s < nsym; s++ {
		disassembleSymbolInto(c.points[:], &c.freq, data[s*SymbolLen:(s+1)*SymbolLen], &c.h, 1+s)
		db := demapSymbolPointsInto(c.db[:0], c.points[:], rate)
		deinterleaveInto(coded[s*cbps:(s+1)*cbps], db, rate)
	}
	nbits := nsym * rate.BitsPerSymbol()
	seq, err := depunctureInto(c.vit.seq[:0], coded, rate.Puncture(), nbits, erasure)
	if err != nil {
		return nil, err
	}
	c.vit.seq = seq
	c.bits = grow(c.bits, nbits)
	c.vit.decode(seq, c.bits, false)
	return c.finish(c.bits), nil
}
