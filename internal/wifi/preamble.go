package wifi

import (
	"math"

	"repro/internal/dsp"
)

// PLCP preamble generation (§17.3.3): ten repetitions of a 16-sample short
// training symbol (8 µs) followed by a double guard interval and two
// 64-sample long training symbols (8 µs). These are the low-entropy,
// standard-defined portions of every frame that the jammer's
// cross-correlator keys on.
//
// The waveforms are pure functions of the standard, so they are rendered
// once at package init; the exported accessors hand out defensive copies,
// while the frame codecs read the cached buffers directly.

// shortSeq is the frequency-domain short training sequence S(-26..26)
// before the sqrt(13/6) scaling; entries are (1+j) multiples.
var shortSeq = [53]complex128{
	0, 0, 1 + 1i, 0, 0, 0, -1 - 1i, 0, 0, 0,
	1 + 1i, 0, 0, 0, -1 - 1i, 0, 0, 0, -1 - 1i, 0,
	0, 0, 1 + 1i, 0, 0, 0, 0, 0, 0, 0,
	-1 - 1i, 0, 0, 0, -1 - 1i, 0, 0, 0, 1 + 1i, 0,
	0, 0, 1 + 1i, 0, 0, 0, 1 + 1i, 0, 0, 0,
	1 + 1i, 0, 0,
}

// longSeq is the frequency-domain long training sequence L(-26..26).
var longSeq = [53]float64{
	1, 1, -1, -1, 1, 1, -1, 1, -1, 1,
	1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
	1, -1, 1, 1, 1, 1, 0, 1, -1, -1,
	1, 1, -1, 1, -1, 1, -1, -1, -1, -1,
	-1, 1, 1, -1, -1, 1, -1, 1, -1, 1,
	1, 1, 1,
}

// carrierToBin maps subcarrier index k in [-26, 26] to its FFT bin.
func carrierToBin(k int) int {
	if k >= 0 {
		return k
	}
	return FFTSize + k
}

// ifft64 performs a 64-point IFFT of freq-domain subcarriers scaled so the
// time-domain signal has approximately unit peak (standard IFFT scaling).
func ifft64(freq dsp.Samples) dsp.Samples {
	buf := freq.Clone()
	dsp.FFT64.Inverse(buf)
	// Undo the 1/N of IFFT and apply 1/sqrt(52) style normalization so the
	// average symbol power is ~1 regardless of occupied carriers.
	buf.Scale(float64(FFTSize))
	return buf
}

// The cached preamble waveforms, rendered once. stsCached is one 16-sample
// short training repetition, ltsCached the 64-sample long training symbol,
// preambleCached the full 320-sample PLCP preamble. ltsConjCached holds the
// conjugated LTS taps the receiver's sync correlates with.
var (
	stsCached      = renderShortTrainingSymbol()
	ltsCached      = renderLongTrainingSymbol()
	ltsConjCached  = renderLTSConj()
	preambleCached = renderPreamble()
)

func renderShortTrainingSymbol() dsp.Samples {
	freq := make(dsp.Samples, FFTSize)
	scale := complex(math.Sqrt(13.0/6.0), 0)
	for i, v := range shortSeq {
		k := i - 26
		freq[carrierToBin(k)] = v * scale
	}
	full := ifft64(freq)
	full.Scale(1.0 / math.Sqrt(float64(FFTSize)))
	return full[:ShortRepLen].Clone()
}

func renderLongTrainingSymbol() dsp.Samples {
	freq := make(dsp.Samples, FFTSize)
	for i, v := range longSeq {
		k := i - 26
		freq[carrierToBin(k)] = complex(v, 0)
	}
	full := ifft64(freq)
	full.Scale(1.0 / math.Sqrt(float64(FFTSize)))
	return full
}

func renderLTSConj() dsp.Samples {
	lts := renderLongTrainingSymbol()
	out := make(dsp.Samples, len(lts))
	for i, v := range lts {
		out[i] = complex(real(v), -imag(v))
	}
	return out
}

func renderPreamble() dsp.Samples {
	out := make(dsp.Samples, 0, ShortPreambleLen+LongPreambleLen)
	sts := renderShortTrainingSymbol()
	for i := 0; i < 10; i++ {
		out = append(out, sts...)
	}
	lts := renderLongTrainingSymbol()
	out = append(out, lts[FFTSize-2*CPLen:]...) // GI2
	out = append(out, lts...)
	out = append(out, lts...)
	return out
}

// ShortTrainingSymbol returns one 16-sample period of the short training
// sequence at 20 MSPS.
func ShortTrainingSymbol() dsp.Samples {
	return stsCached.Clone()
}

// ShortPreamble returns the full 160-sample (8 µs) short training sequence:
// ten repetitions of the short training symbol.
func ShortPreamble() dsp.Samples {
	return preambleCached[:ShortPreambleLen].Clone()
}

// LongTrainingSymbol returns the 64-sample long training symbol (no guard).
func LongTrainingSymbol() dsp.Samples {
	return ltsCached.Clone()
}

// LongFreqSequence exposes the frequency-domain long training values for
// channel estimation; index by subcarrier k via carrierToBin.
func longFreqAt(k int) float64 {
	return longSeq[k+26]
}
