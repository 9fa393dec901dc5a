// Package wifi implements the IEEE 802.11a/g OFDM physical layer used by the
// validation experiments of §3 and §4: PLCP preamble generation (short and
// long training sequences), the SIGNAL field, and the full DATA-field coding
// chain (scrambler, K=7 convolutional code with puncturing, block
// interleaver, BPSK/QPSK/16-QAM/64-QAM mapping, 64-point OFDM with cyclic
// prefix), plus a complete receiver (synchronization, channel estimation,
// equalization, demapping, Viterbi decoding, FCS check).
//
// Waveforms are produced at the standard's native 20 MSPS; the jammer's
// receive chain resamples them to its fixed 25 MSPS, which is exactly the
// sampling-rate mismatch the paper identifies as the dominant limitation of
// the 64-sample correlator on long preambles (§3.2).
package wifi

import "fmt"

// PHY constants of the 802.11a/g OFDM PHY (20 MHz channelization).
const (
	// SampleRate is the native baseband rate: 20 MSPS.
	SampleRate = 20_000_000
	// FFTSize is the OFDM symbol size.
	FFTSize = 64
	// CPLen is the cyclic prefix (guard interval): 16 samples, 0.8 µs.
	CPLen = 16
	// SymbolLen is one OFDM symbol including guard: 80 samples, 4 µs.
	SymbolLen = FFTSize + CPLen
	// NumDataCarriers is the number of data subcarriers per symbol.
	NumDataCarriers = 48
	// NumPilots is the number of pilot subcarriers per symbol.
	NumPilots = 4
	// ShortPreambleLen is the 10-repetition short training sequence:
	// 160 samples, 8 µs.
	ShortPreambleLen = 160
	// ShortRepLen is one short training symbol repetition: 16 samples.
	ShortRepLen = 16
	// LongPreambleLen is the long training sequence: 32-sample GI2 plus two
	// 64-sample symbols, 160 samples, 8 µs.
	LongPreambleLen = 160
	// ServiceBits is the DATA-field SERVICE prefix (all zero, 7 of them
	// reset the descrambler).
	ServiceBits = 16
	// TailBits flushes the convolutional coder at the end of DATA.
	TailBits = 6
)

// Rate is an 802.11a/g OFDM data rate.
type Rate uint8

// The eight mandatory/optional OFDM rates.
const (
	Rate6 Rate = iota
	Rate9
	Rate12
	Rate18
	Rate24
	Rate36
	Rate48
	Rate54
)

// rateInfo captures the modulation/coding parameters of Table 78 in the
// standard.
type rateInfo struct {
	mbps     int
	bpsc     int // coded bits per subcarrier
	cbps     int // coded bits per OFDM symbol
	dbps     int // data bits per OFDM symbol
	punct    Puncture
	signal   uint8 // 4-bit RATE field encoding
	constell Constellation
}

var rateTable = [...]rateInfo{
	Rate6:  {6, 1, 48, 24, Punct1_2, 0b1101, BPSK},
	Rate9:  {9, 1, 48, 36, Punct3_4, 0b1111, BPSK},
	Rate12: {12, 2, 96, 48, Punct1_2, 0b0101, QPSK},
	Rate18: {18, 2, 96, 72, Punct3_4, 0b0111, QPSK},
	Rate24: {24, 4, 192, 96, Punct1_2, 0b1001, QAM16},
	Rate36: {36, 4, 192, 144, Punct3_4, 0b1011, QAM16},
	Rate48: {48, 6, 288, 192, Punct2_3, 0b0001, QAM64},
	Rate54: {54, 6, 288, 216, Punct3_4, 0b0011, QAM64},
}

// AllRates lists every OFDM rate, ascending.
var AllRates = []Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54}

// Valid reports whether r is a defined rate.
func (r Rate) Valid() bool { return int(r) < len(rateTable) }

// Mbps returns the nominal data rate in Mb/s.
func (r Rate) Mbps() int { return rateTable[r].mbps }

// BitsPerSymbol returns the data bits carried per OFDM symbol (N_DBPS).
func (r Rate) BitsPerSymbol() int { return rateTable[r].dbps }

// CodedBitsPerSymbol returns N_CBPS.
func (r Rate) CodedBitsPerSymbol() int { return rateTable[r].cbps }

// Puncture returns the code puncturing pattern of the rate.
func (r Rate) Puncture() Puncture { return rateTable[r].punct }

// Constellation returns the subcarrier constellation of the rate.
func (r Rate) Constellation() Constellation { return rateTable[r].constell }

// SignalBits returns the 4-bit RATE encoding used in the SIGNAL field.
func (r Rate) SignalBits() uint8 { return rateTable[r].signal }

// RateFromSignalBits decodes the SIGNAL field RATE bits.
func RateFromSignalBits(bits uint8) (Rate, error) {
	for r, info := range rateTable {
		if info.signal == bits {
			return Rate(r), nil
		}
	}
	return 0, fmt.Errorf("wifi: invalid SIGNAL rate bits %04b", bits)
}

func (r Rate) String() string {
	if !r.Valid() {
		return fmt.Sprintf("Rate(%d)", uint8(r))
	}
	return fmt.Sprintf("%dMbps", rateTable[r].mbps)
}

// NumDataSymbols returns the number of OFDM DATA symbols needed to carry a
// PSDU of length psduBytes at rate r (SERVICE + PSDU + tail + pad, §17.3.5.3).
func NumDataSymbols(r Rate, psduBytes int) int {
	bits := ServiceBits + 8*psduBytes + TailBits
	dbps := r.BitsPerSymbol()
	return (bits + dbps - 1) / dbps
}

// FrameDuration returns the whole PPDU duration in 20 MSPS samples:
// preambles (16 µs) + SIGNAL (4 µs) + DATA symbols.
func FrameDuration(r Rate, psduBytes int) int {
	return ShortPreambleLen + LongPreambleLen + SymbolLen +
		NumDataSymbols(r, psduBytes)*SymbolLen
}
