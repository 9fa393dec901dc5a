// Package wimax implements the mobile WiMAX (IEEE 802.16e) OFDMA downlink
// signal structure needed by the validation experiment of §5: the downlink
// preamble with its three carrier sets, PN-sequence-modulated subcarriers,
// and TDD frame timing, modeled on the Airspan Air4G macro base station the
// paper uses (10 MHz channel, 1024-point FFT, Cell ID 1, Segment 0).
//
// In the time domain the preamble is a single OFDMA symbol at the start of
// each downlink frame. Because only every third subcarrier is occupied, the
// symbol's useful part consists of three repetitions of a ~"284-sample"
// orthogonal code — the structure the paper's §5 exploits and whose 25 µs
// total duration defeats a 64-sample / 2.56 µs correlation window about 2/3
// of the time.
package wimax

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// PHY constants for the 10 MHz TDD profile the paper configures.
const (
	// SampleRate is the hardware sampling rate the paper reports for the
	// 10 MHz bandwidth mode: 11.4 MSPS (28/25 × 10 MHz, rounded up to the
	// base station's clocking).
	SampleRate = 11_400_000
	// FFTSize is the OFDMA modulation FFT size.
	FFTSize = 1024
	// CPLen is the cyclic prefix for the standard 1/8 guard ratio.
	CPLen = FFTSize / 8
	// SymbolLen is one OFDMA symbol including guard.
	SymbolLen = FFTSize + CPLen
	// GuardBandCarriers is the number of null guard subcarriers on each
	// side of the preamble spectrum (paper §5: 86 per side).
	GuardBandCarriers = 86
	// PreambleCarrierSpacing: every 3rd subcarrier carries a pilot tone.
	PreambleCarrierSpacing = 3
	// PNLength is the number of PN values modulating each preamble carrier
	// set (paper §5: a 284-value sequence). It is also the period of the
	// preamble's internal orthogonal code: with every 3rd carrier of the
	// 852-carrier usable band occupied, the useful symbol approximately
	// repeats three times every 284 samples, "25 µs" at 11.4 MSPS. The
	// jammer's 64-sample window sees only the first 2.56 µs of it (§5).
	PNLength = 284
	// NumSegments is the number of preamble carrier sets (segments 0-2).
	NumSegments = 3
	// FrameDurationSamples is the 5 ms TDD frame at the hardware rate.
	FrameDurationSamples = SampleRate / 200
)

// Config identifies the base-station parameters that select the preamble.
type Config struct {
	// CellID is the cell identifier, 0..31.
	CellID int
	// Segment selects the preamble carrier set, 0..2.
	Segment int
}

// Validate checks the configuration against the standard's ranges.
func (c Config) Validate() error {
	if c.CellID < 0 || c.CellID > 31 {
		return fmt.Errorf("wimax: cell ID %d outside [0,31]", c.CellID)
	}
	if c.Segment < 0 || c.Segment >= NumSegments {
		return fmt.Errorf("wimax: segment %d outside [0,%d]", c.Segment, NumSegments-1)
	}
	return nil
}

// pnSequence derives the 284-value ±1 preamble modulation sequence for a
// (cellID, segment) pair. The standard tabulates these per preamble index;
// we generate them from a seeded LFSR so that distinct cells/segments get
// distinct, reproducible low-cross-correlation sequences with the same
// structure (what matters to the detector is the sequence's length,
// bandwidth, and repetition geometry, not the exact table values).
func pnSequence(cellID, segment int) []float64 {
	// 11-bit LFSR (x^11 + x^9 + 1), seeded from the preamble index.
	state := uint16(1 + cellID + 32*segment)
	seq := make([]float64, PNLength)
	for i := range seq {
		b := ((state >> 10) ^ (state >> 8)) & 1
		state = ((state << 1) | b) & 0x7FF
		seq[i] = 1 - 2*float64(b)
	}
	return seq
}

// plan1024 is the precomputed 1024-point transform every OFDMA symbol here
// modulates through; its folded-scaling inverse is value-exact against a
// generic radix-2 IFFT (internal/dsp's plan tests pin it).
var plan1024 = dsp.NewFFTPlan(FFTSize)

// PreambleSymbol generates the time-domain downlink preamble OFDMA symbol
// (CP + 1024 samples) for the configuration.
func PreambleSymbol(cfg Config) (dsp.Samples, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make(dsp.Samples, SymbolLen)
	fillPreambleSymbol(out, cfg)
	return out, nil
}

// fillPreambleSymbol renders the preamble symbol into sym (SymbolLen
// samples). The spectrum is laid out and inverse-transformed in place in
// the symbol's body, whose tail is then copied into the cyclic prefix.
func fillPreambleSymbol(sym dsp.Samples, cfg Config) {
	freq := sym[CPLen:SymbolLen]
	clear(freq)
	pn := pnSequence(cfg.CellID, cfg.Segment)
	used := FFTSize - 2*GuardBandCarriers // usable band
	// Carrier set n occupies subcarriers guard + n + 3k within the usable
	// band (skipping DC).
	idx := 0
	for k := 0; idx < PNLength; k++ {
		off := GuardBandCarriers + cfg.Segment + PreambleCarrierSpacing*k
		if off >= GuardBandCarriers+used {
			break
		}
		// Map from "spectrum position" (0..1023 across the band, DC at
		// center) to FFT bin.
		carrier := off - FFTSize/2
		if carrier == 0 {
			// DC is punctured: its PN value is consumed but not radiated
			// (only segment 0 hits DC on the 1024-FFT grid).
			idx++
			continue
		}
		bin := carrier
		if bin < 0 {
			bin += FFTSize
		}
		freq[bin] = complex(pn[idx], 0)
		idx++
	}
	plan1024.Inverse(freq)
	// Scale so the preamble symbol has unit-order power: occupied carriers
	// number ~284 of 1024.
	freq.Scale(float64(FFTSize) / math.Sqrt(float64(FFTSize)))
	boost := math.Sqrt(float64(FFTSize) / float64(PNLength))
	freq.Scale(boost)
	copy(sym[:CPLen], freq[FFTSize-CPLen:])
}

// DownlinkFrame assembles one TDD downlink subframe: the preamble symbol
// followed by nDataSymbols of OFDMA payload (pseudorandom QPSK across the
// usable band) and silence covering the rest of the 5 ms frame (uplink
// subframe plus gaps), so consecutive frames exhibit the on/off envelope an
// energy detector keys on.
func DownlinkFrame(cfg Config, nDataSymbols int, seed int64) (dsp.Samples, error) {
	return DownlinkFrameInto(nil, cfg, nDataSymbols, seed, FrameDurationSamples)
}

// DownlinkFrameInto writes the first keep samples of DownlinkFrame(cfg,
// nDataSymbols, seed) into dst[:keep], growing dst only when its capacity
// is short, and returns dst[:keep]. It renders only the symbols that start
// before keep and zeroes only the kept silence, so a caller that keeps the
// frame's head pays nothing for the rest of the 5 ms. keep may not cut a
// symbol: it ends on a symbol boundary or in the silence after the last
// symbol.
func DownlinkFrameInto(dst dsp.Samples, cfg Config, nDataSymbols int, seed int64, keep int) (dsp.Samples, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nDataSymbols < 0 {
		return nil, fmt.Errorf("wimax: negative data symbol count")
	}
	if (1+nDataSymbols)*SymbolLen > FrameDurationSamples {
		return nil, fmt.Errorf("wimax: %d symbols exceed the 5 ms frame", nDataSymbols)
	}
	if keep < 0 || keep > FrameDurationSamples {
		return nil, fmt.Errorf("wimax: keep %d samples outside [0, %d]", keep, FrameDurationSamples)
	}
	if keep < (1+nDataSymbols)*SymbolLen && keep%SymbolLen != 0 {
		return nil, fmt.Errorf("wimax: keep %d samples cuts a %d-sample symbol", keep, SymbolLen)
	}
	if cap(dst) < keep {
		dst = make(dsp.Samples, keep)
	}
	dst = dst[:keep]
	// Each kept symbol renders into its window in place.
	rng := newPCG(seed)
	for s := 0; s <= nDataSymbols && s*SymbolLen < keep; s++ {
		sym := dst[s*SymbolLen : (s+1)*SymbolLen]
		if s == 0 {
			fillPreambleSymbol(sym, cfg)
		} else {
			fillDataSymbol(sym, rng)
		}
	}
	// The tail beyond the last symbol is silence (uplink subframe plus
	// gaps).
	clear(dst[min((1+nDataSymbols)*SymbolLen, keep):])
	return dst, nil
}

// fillDataSymbol renders one OFDMA payload symbol with random QPSK on the
// usable subcarriers into sym (SymbolLen samples), transforming in place
// as fillPreambleSymbol does.
func fillDataSymbol(sym dsp.Samples, rng *pcg) {
	freq := sym[CPLen:SymbolLen]
	clear(freq)
	const a = 0.7071067811865476
	for off := GuardBandCarriers; off < FFTSize-GuardBandCarriers; off++ {
		carrier := off - FFTSize/2
		if carrier == 0 {
			continue
		}
		bin := carrier
		if bin < 0 {
			bin += FFTSize
		}
		v := rng.next()
		re, im := a, a
		if v&1 != 0 {
			re = -a
		}
		if v&2 != 0 {
			im = -a
		}
		freq[bin] = complex(re, im)
	}
	plan1024.Inverse(freq)
	freq.Scale(math.Sqrt(float64(FFTSize)))
	// Normalize for occupied fraction.
	occupied := float64(FFTSize - 2*GuardBandCarriers - 1)
	freq.Scale(math.Sqrt(float64(FFTSize) / occupied))
	copy(sym[:CPLen], freq[FFTSize-CPLen:])
}

// pcg is a tiny deterministic PRNG for payload generation.
type pcg struct{ state uint64 }

func newPCG(seed int64) *pcg {
	return &pcg{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

func (p *pcg) next() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	x := p.state
	x ^= x >> 33
	return x
}

// ActualSampleRate is the true 802.16e sampling rate for a 10 MHz channel:
// the standard's 28/25 sampling factor gives 11.2 MSPS. The paper quotes
// the Airspan's rate as 11.4 MHz; the framework's host follows the paper
// when generating correlation templates (SampleRate), while the base
// station transmits at the standard's actual rate — the ~1.8% mismatch is
// one of the "different sampling rates" limitations §5 calls out.
const ActualSampleRate = 11_200_000
