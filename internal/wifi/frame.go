package wifi

import (
	"fmt"

	"repro/internal/dsp"
)

// PPDU transmission (§17.3.2): PLCP preamble, the BPSK rate-1/2 SIGNAL
// symbol carrying RATE and LENGTH, and the DATA field carrying
// SERVICE + PSDU + tail + pad through the full coding chain.

// MaxPSDU is the largest PSDU the 12-bit LENGTH field can describe.
const MaxPSDU = 4095

// TxConfig controls PPDU generation.
type TxConfig struct {
	// Rate selects the DATA-field modulation and coding.
	Rate Rate
	// ScramblerSeed is the 7-bit nonzero initial scrambler state.
	ScramblerSeed uint8
}

// signalFieldInto fills the 24 SIGNAL bits: RATE(4), reserved(1),
// LENGTH(12), parity(1), tail(6).
func signalFieldInto(bits *[24]uint8, r Rate, length int) {
	rb := r.SignalBits()
	for i := 0; i < 4; i++ {
		bits[i] = (rb >> (3 - i)) & 1 // R1-R4 transmitted MSB of table first
	}
	bits[4] = 0 // reserved
	for i := 0; i < 12; i++ {
		bits[5+i] = uint8((length >> i) & 1) // LENGTH is LSB first
	}
	var par uint8
	for i := 0; i < 17; i++ {
		par ^= bits[i]
	}
	bits[17] = par
	for i := 18; i < 24; i++ {
		bits[i] = 0 // tail
	}
}

// parseSignalField inverts signalFieldInto.
func parseSignalField(bits []uint8) (r Rate, length int, err error) {
	if len(bits) < 24 {
		return 0, 0, fmt.Errorf("wifi: SIGNAL field too short")
	}
	var par uint8
	for i := 0; i < 18; i++ {
		par ^= bits[i]
	}
	if par != 0 {
		return 0, 0, fmt.Errorf("wifi: SIGNAL parity error")
	}
	var rb uint8
	for i := 0; i < 4; i++ {
		rb = rb<<1 | bits[i]
	}
	r, err = RateFromSignalBits(rb)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < 12; i++ {
		length |= int(bits[5+i]) << i
	}
	return r, length, nil
}

// Modulate builds the complete PPDU baseband waveform at 20 MSPS for the
// given PSDU. The returned buffer has unit-order average power during the
// frame. The work runs on a pooled TxCodec; the returned slice is freshly
// allocated and owned by the caller.
func Modulate(psdu []byte, cfg TxConfig) (dsp.Samples, error) {
	if !cfg.Rate.Valid() {
		return nil, fmt.Errorf("wifi: invalid rate %v", cfg.Rate)
	}
	if len(psdu) == 0 || len(psdu) > MaxPSDU {
		return nil, fmt.Errorf("wifi: PSDU length %d outside [1, %d]", len(psdu), MaxPSDU)
	}
	c := txPool.Get().(*TxCodec)
	defer txPool.Put(c)
	out := make(dsp.Samples, 0, FrameDuration(cfg.Rate, len(psdu)))
	return c.TxFrame(out, psdu, cfg)
}

// PseudoFrame builds the single-preamble test frames of §3.2: "pseudo-frames
// with only a single short or long preamble", used to characterize raw
// correlator sensitivity.
type PseudoFrame uint8

// Pseudo-frame kinds.
const (
	PseudoShort PseudoFrame = iota // one 16-sample short training symbol
	PseudoLong                     // one 64-sample long training symbol
)

// ModulatePseudoFrame returns the bare training-symbol waveform.
func ModulatePseudoFrame(kind PseudoFrame) dsp.Samples {
	switch kind {
	case PseudoShort:
		return ShortTrainingSymbol()
	default:
		return LongTrainingSymbol()
	}
}
