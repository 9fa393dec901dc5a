// Package wifib implements the IEEE 802.11b DSSS/CCK physical layer. The
// paper's platform is explicitly multi-standard — "reliably and
// selectively jam in-flight packets of WiFi (802.11 a/b/g)" — and the
// direct-sequence PHY is the part of that claim the OFDM modem in package
// wifi does not cover: an 11-chip Barker-spread preamble at 1 Mbps DBPSK,
// a PLCP header protected by CRC-16, and payloads at 1/2 Mbps (Barker,
// DBPSK/DQPSK) or 5.5/11 Mbps (CCK).
//
// Waveforms are produced at 22 MSPS (two samples per 11 Mchip/s chip); the
// jammer's 25 MSPS receive chain resamples them like any other standard.
// The 128-bit scrambled-ones SYNC field is the low-entropy, always-present
// structure the cross-correlator keys on.
//
// The package is the transmitter: the host's 802.11b correlation template,
// the selectivity experiment and the jamlab console are built on it. The
// receiver (demod_test.go) is the modulator's test oracle, since nothing in
// the system receives 802.11b.
package wifib

import "fmt"

// PHY constants.
const (
	// ChipRate is the DSSS chipping rate: 11 Mchip/s.
	ChipRate = 11_000_000
	// SamplesPerChip is the oversampling of the generated waveform.
	SamplesPerChip = 2
	// SampleRate is the waveform rate: 22 MSPS.
	SampleRate = ChipRate * SamplesPerChip
	// BarkerLength is the spreading-code length in chips.
	BarkerLength = 11
	// SyncBits is the long-preamble SYNC field length (scrambled ones).
	SyncBits = 128
	// SFD is the start-frame delimiter transmitted after SYNC (LSB first).
	SFD = 0xF3A0
	// HeaderBits is the PLCP header: SIGNAL(8) SERVICE(8) LENGTH(16) CRC(16).
	HeaderBits = 48
	// MaxPSDU bounds the MPDU length for the 16-bit microsecond LENGTH
	// field at 1 Mbps.
	MaxPSDU = 4095
)

// Barker is the 11-chip Barker sequence used to spread every 1/2 Mbps
// symbol.
var Barker = [BarkerLength]float64{1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1}

// Rate is an 802.11b data rate.
type Rate uint8

// The four 802.11b rates.
const (
	Rate1 Rate = iota
	Rate2
	Rate5_5
	Rate11
)

func (r Rate) String() string {
	switch r {
	case Rate1:
		return "1Mbps"
	case Rate2:
		return "2Mbps"
	case Rate5_5:
		return "5.5Mbps"
	case Rate11:
		return "11Mbps"
	default:
		return fmt.Sprintf("Rate(%d)", uint8(r))
	}
}

// Valid reports whether r is defined.
func (r Rate) Valid() bool { return r <= Rate11 }

// signalByte returns the PLCP SIGNAL field encoding (rate in 100 kbit/s).
func (r Rate) signalByte() uint8 {
	switch r {
	case Rate1:
		return 0x0A
	case Rate2:
		return 0x14
	case Rate5_5:
		return 0x37
	default:
		return 0x6E
	}
}

// Scrambler is the 802.11b self-synchronizing (multiplicative) scrambler
// with polynomial z⁷ + z⁴ + 1 (§18.2.4). Unlike the OFDM PHY's additive
// scrambler, the receive side resynchronizes from the received bits
// themselves, so no seed recovery step is needed.
type Scrambler struct {
	state uint8
}

// NewScrambler returns a scrambler seeded with the given 7-bit state
// (the standard transmits with 0x1B for the long preamble... any nonzero
// value interoperates because descrambling self-synchronizes).
func NewScrambler(seed uint8) *Scrambler { return &Scrambler{state: seed & 0x7F} }

// Scramble processes one transmit bit.
func (s *Scrambler) Scramble(b uint8) uint8 {
	out := (b ^ (s.state >> 3) ^ (s.state >> 6)) & 1
	s.state = ((s.state << 1) | out) & 0x7F
	return out
}

// CRC16 computes the PLCP header CRC (CCITT, x¹⁶+x¹²+x⁵+1), transmitted
// ones-complemented.
func CRC16(bits []uint8) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range bits {
		msb := (crc >> 15) & 1
		crc <<= 1
		if (uint16(b&1) ^ msb) != 0 {
			crc ^= 0x1021
		}
	}
	return ^crc
}
