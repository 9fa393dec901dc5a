package wifib

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Transmit path: long-preamble PPDU assembly (§18.2.2): scrambled SYNC and
// SFD, the CRC-protected PLCP header at 1 Mbps DBPSK, and the PSDU at the
// selected rate — Barker-spread DBPSK/DQPSK for 1/2 Mbps, CCK for
// 5.5/11 Mbps.

// dqpskPhase maps a differential dibit (d0 first) to its phase increment.
func dqpskPhase(d0, d1 uint8) float64 {
	switch d0<<1 | d1 {
	case 0b00:
		return 0
	case 0b01:
		return math.Pi / 2
	case 0b11:
		return math.Pi
	default: // 0b10
		return 3 * math.Pi / 2
	}
}

// qpskPhase maps a CCK dibit to a fixed phase (Table 18-4).
func qpskPhase(d0, d1 uint8) float64 {
	switch d0<<1 | d1 {
	case 0b00:
		return 0
	case 0b01:
		return math.Pi / 2
	case 0b10:
		return math.Pi
	default:
		return 3 * math.Pi / 2
	}
}

// cckChips builds the 8-chip CCK code vector for the four phases.
func cckChips(p1, p2, p3, p4 float64) [8]complex128 {
	e := func(ph float64) complex128 { return cmplx.Exp(complex(0, ph)) }
	return [8]complex128{
		e(p1 + p2 + p3 + p4),
		e(p1 + p3 + p4),
		e(p1 + p2 + p4),
		-e(p1 + p4),
		e(p1 + p2 + p3),
		e(p1 + p3),
		-e(p1 + p2),
		e(p1),
	}
}

// modulator tracks the differential phase reference across symbols.
type modulator struct {
	phase  float64 // accumulated differential reference
	symIdx int     // symbol counter for the CCK odd-symbol π rotation
	out    dsp.Samples
}

// emitChips appends chips at SamplesPerChip oversampling (rectangular
// chip shaping; the station's TX filter is outside the scope of the chip
// model and the detectors operate on the despread structure).
func (m *modulator) emitChips(chips []complex128) {
	for _, c := range chips {
		for s := 0; s < SamplesPerChip; s++ {
			m.out = append(m.out, c)
		}
	}
}

// barkerSymbol emits one Barker-spread symbol at the current phase.
func (m *modulator) barkerSymbol() {
	ref := cmplx.Exp(complex(0, m.phase))
	chips := make([]complex128, BarkerLength)
	for i, b := range Barker {
		chips[i] = ref * complex(b, 0)
	}
	m.emitChips(chips)
}

// dbpsk modulates one bit at 1 Mbps.
func (m *modulator) dbpsk(b uint8) {
	if b&1 == 1 {
		m.phase += math.Pi
	}
	m.barkerSymbol()
	m.symIdx++
}

// dqpsk modulates a dibit at 2 Mbps.
func (m *modulator) dqpsk(d0, d1 uint8) {
	m.phase += dqpskPhase(d0, d1)
	m.barkerSymbol()
	m.symIdx++
}

// cck modulates 4 or 8 bits per symbol.
func (m *modulator) cck(bits []uint8) {
	m.phase += dqpskPhase(bits[0], bits[1])
	if m.symIdx%2 == 1 {
		// Odd-numbered symbols get an extra π rotation (§18.4.6.5).
		m.phase += math.Pi
	}
	var p2, p3, p4 float64
	if len(bits) == 8 { // 11 Mbps
		p2 = qpskPhase(bits[2], bits[3])
		p3 = qpskPhase(bits[4], bits[5])
		p4 = qpskPhase(bits[6], bits[7])
	} else { // 5.5 Mbps
		p2 = float64(bits[2])*math.Pi + math.Pi/2
		p3 = 0
		p4 = float64(bits[3]) * math.Pi
	}
	chips := cckChips(m.phase, p2, p3, p4)
	m.emitChips(chips[:])
	m.symIdx++
}

// headerBits assembles the unscrambled 48-bit PLCP header for the PSDU.
func headerBits(rate Rate, psduBytes int) []uint8 {
	// LENGTH is the PSDU transmit time in microseconds.
	usec := txTimeUS(rate, psduBytes)
	var bits []uint8
	appendByte := func(v uint8) {
		for i := 0; i < 8; i++ {
			bits = append(bits, (v>>i)&1)
		}
	}
	appendByte(rate.signalByte())
	service := uint8(0)
	if rate == Rate11 && lengthExtension(rate, psduBytes) {
		service |= 0x80 // length-extension bit
	}
	appendByte(service)
	bits = append(bits, uint16Bits(uint16(usec))...)
	crc := CRC16(bits)
	bits = append(bits, uint16Bits(crc)...)
	return bits
}

func uint16Bits(v uint16) []uint8 {
	out := make([]uint8, 16)
	for i := range out {
		out[i] = uint8(v>>i) & 1
	}
	return out
}

// txTimeUS returns the PSDU duration in whole microseconds (§18.2.3.5).
func txTimeUS(rate Rate, psduBytes int) int {
	bits := psduBytes * 8
	switch rate {
	case Rate1:
		return bits
	case Rate2:
		return (bits + 1) / 2
	case Rate5_5:
		return int(math.Ceil(float64(bits) / 5.5))
	default:
		return int(math.Ceil(float64(bits) / 11))
	}
}

// lengthExtension reports the 11 Mbps ambiguity bit of §18.2.3.5.
func lengthExtension(rate Rate, psduBytes int) bool {
	if rate != Rate11 {
		return false
	}
	bits := psduBytes * 8
	us := int(math.Ceil(float64(bits) / 11))
	return us*11-bits >= 8
}

// Modulate builds a complete long-preamble PPDU at 22 MSPS.
func Modulate(psdu []byte, rate Rate, scramblerSeed uint8) (dsp.Samples, error) {
	return ModulateInto(nil, psdu, rate, scramblerSeed)
}

// ModulateInto is Modulate writing the PPDU into dst's storage, grown only
// when its capacity is short, so a caller that modulates frame after frame
// into one buffer allocates no chip buffer once it has grown.
func ModulateInto(dst dsp.Samples, psdu []byte, rate Rate, scramblerSeed uint8) (dsp.Samples, error) {
	if !rate.Valid() {
		return nil, fmt.Errorf("wifib: invalid rate %v", rate)
	}
	if len(psdu) == 0 || len(psdu) > MaxPSDU {
		return nil, fmt.Errorf("wifib: PSDU length %d outside [1, %d]", len(psdu), MaxPSDU)
	}
	if scramblerSeed&0x7F == 0 {
		scramblerSeed = 0x1B
	}
	scr := NewScrambler(scramblerSeed)
	m := &modulator{out: dst[:0]}

	// SYNC: 128 scrambled ones, DBPSK.
	for i := 0; i < SyncBits; i++ {
		m.dbpsk(scr.Scramble(1))
	}
	// SFD, LSB first.
	for i := 0; i < 16; i++ {
		m.dbpsk(scr.Scramble(uint8((uint32(SFD) >> i) & 1)))
	}
	// PLCP header at 1 Mbps.
	for _, b := range headerBits(rate, len(psdu)) {
		m.dbpsk(scr.Scramble(b))
	}
	// PSDU at the selected rate, LSB first per octet, scrambled.
	var bits []uint8
	for _, v := range psdu {
		for i := 0; i < 8; i++ {
			bits = append(bits, scr.Scramble((v>>i)&1))
		}
	}
	switch rate {
	case Rate1:
		for _, b := range bits {
			m.dbpsk(b)
		}
	case Rate2:
		for i := 0; i+1 < len(bits); i += 2 {
			m.dqpsk(bits[i], bits[i+1])
		}
	case Rate5_5:
		for i := 0; i+3 < len(bits); i += 4 {
			m.cck(bits[i : i+4])
		}
	default:
		for i := 0; i+7 < len(bits); i += 8 {
			m.cck(bits[i : i+8])
		}
	}
	return m.out, nil
}

// SyncWaveform returns the leading portion of the scrambled SYNC field as
// a correlation template source (the first n symbols at 22 MSPS). The
// scrambled-ones sequence is deterministic for a given seed, which is what
// makes it usable as a matched-filter template despite the scrambling.
func SyncWaveform(symbols int, scramblerSeed uint8) dsp.Samples {
	if scramblerSeed&0x7F == 0 {
		scramblerSeed = 0x1B
	}
	scr := NewScrambler(scramblerSeed)
	m := &modulator{}
	for i := 0; i < symbols; i++ {
		m.dbpsk(scr.Scramble(1))
	}
	return m.out
}
