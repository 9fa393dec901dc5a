package dsp

import "fmt"

// Resampler converts a sample stream between two rates by rational
// interpolation L / decimation M with a polyphase anti-aliasing lowpass.
// It is how the simulator reproduces the paper's central rate mismatch: WiFi
// frames are generated at 20 MSPS per 802.11g, while the jammer's receive
// chain is fixed at 25 MSPS (L/M = 5/4), and the WiMAX downlink at 11.4 MSPS
// becomes L/M = 125/57.
type Resampler struct {
	l, m  int
	taps  []float64
	phase [][]float64 // polyphase banks, phase[p][k] multiplies x[n-k]
	// hist is a doubled ring of the last tapsPerPhase input samples: each
	// sample is written at pos and pos+tapsPerPhase, so hist[pos:] always
	// holds the window newest first without wrapping. fill counts the
	// samples seen up to tapsPerPhase, for the warm-up.
	hist Samples
	pos  int
	fill int
	acc  int     // output phase accumulator
	out  Samples // output buffer, reused by every Process call
}

// NewResampler creates an L/M rational resampler. tapsPerPhase controls
// filter quality (8 is a good default; higher is sharper and slower).
func NewResampler(l, m, tapsPerPhase int) *Resampler {
	if l <= 0 || m <= 0 {
		panic(fmt.Sprintf("dsp: invalid resampler ratio %d/%d", l, m))
	}
	if tapsPerPhase < 2 {
		tapsPerPhase = 2
	}
	g := gcd(l, m)
	l, m = l/g, m/g
	numTaps := l * tapsPerPhase
	// Cut off at the narrower of the input and output Nyquist rates.
	cutoff := 0.5 / float64(max(l, m))
	taps := LowpassTaps(numTaps, cutoff*0.9)
	// The interpolator inserts L-1 zeros, so scale gain by L to preserve
	// signal amplitude through the zero-stuffed lowpass.
	for i := range taps {
		taps[i] *= float64(l)
	}
	phase := make([][]float64, l)
	for p := 0; p < l; p++ {
		var bank []float64
		for i := p; i < numTaps; i += l {
			bank = append(bank, taps[i])
		}
		phase[p] = bank
	}
	return &Resampler{l: l, m: m, taps: taps, phase: phase,
		hist: make(Samples, 2*tapsPerPhase)}
}

// GroupDelayOutputSamples returns the anti-aliasing filter's group delay in
// output-rate samples. The lowpass is linear-phase, so its delay is exactly
// (numTaps-1)/2 positions of the virtual upsampled stream, which advances M
// positions per output sample.
func (r *Resampler) GroupDelayOutputSamples() float64 {
	return float64(len(r.taps)-1) / float64(2*r.m)
}

// Reset clears filter state.
func (r *Resampler) Reset() {
	r.pos, r.fill = 0, 0
	r.acc = 0
}

// Process consumes a block of input samples and returns the resampled
// output. Streaming state is preserved across calls so that consecutive
// blocks are seamless.
//
// The returned slice is the resampler's own buffer: it stays valid only
// until the next call to Process, which overwrites it. Callers that keep
// output across calls must copy it.
func (r *Resampler) Process(in Samples) Samples {
	taps := len(r.phase[0])
	if need := len(in)*r.l/r.m + 1; cap(r.out) < need {
		r.out = make(Samples, 0, need)
	}
	out := r.out[:0]
	hist, pos, fill, acc := r.hist, r.pos, r.fill, r.acc
	for _, x := range in {
		if pos == 0 {
			pos = taps
		}
		pos--
		hist[pos] = x
		hist[pos+taps] = x
		if fill < taps {
			fill++
		}
		win := hist[pos : pos+fill]
		// Each input sample advances the virtual upsampled stream by L
		// positions; emit an output whenever the accumulator crosses M.
		for acc < r.l {
			out = append(out, dot(r.phase[acc], win))
			acc += r.m
		}
		acc -= r.l
	}
	r.pos, r.fill, r.acc = pos, fill, acc
	r.out = out
	return out
}

// dot is one polyphase output: the bank against the history window, newest
// sample first, summed in bank order. Multiplying by the real tap on each
// rail is bit-equal to the complex product x*complex(c, 0) for finite x.
func dot(bank []float64, win Samples) complex128 {
	bank = bank[:len(win)]
	var re, im float64
	for k, x := range win {
		c := bank[k]
		re += real(x) * c
		im += imag(x) * c
	}
	return complex(re, im)
}

// Resample is a convenience wrapper that resamples a whole buffer with a
// fresh L/M resampler and returns the result, which the caller owns.
func Resample(in Samples, l, m int) Samples {
	return NewResampler(l, m, 8).Process(in)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
