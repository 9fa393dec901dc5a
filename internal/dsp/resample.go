package dsp

import (
	"fmt"
	"math"
)

// Resampler converts a sample stream between two rates by rational
// interpolation L / decimation M with a polyphase anti-aliasing lowpass.
// It is how the simulator reproduces the paper's central rate mismatch: WiFi
// frames are generated at 20 MSPS per 802.11g, while the jammer's receive
// chain is fixed at 25 MSPS (L/M = 5/4), and the WiMAX downlink at 11.4 MSPS
// becomes L/M = 125/57.
type Resampler struct {
	l, m int
	taps int // taps per phase
	// banks holds the polyphase banks one after another, each oldest tap
	// first: banks[p*taps+taps-1-k] multiplies x[n-k] for phase p. Each tap
	// is stored twice, as the [c, c] pair the SSE2 kernel multiplies a
	// [re, im] sample by.
	banks [][2]float64
	// hist is a doubled ring of the last taps input samples: each sample is
	// written at pos and pos+taps before pos advances, so hist[pos:pos+taps]
	// is the window in stream order without wrapping. fill counts the
	// samples seen up to taps, for the warm-up.
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
	// The anti-aliasing lowpass is a Hamming-windowed sinc of L·taps taps,
	// cut off just below the narrower of the input and output Nyquist
	// rates. Tap i belongs to phase i mod L, delay i/L, and is written
	// straight into its bank. The taps are normalized to unit DC gain and
	// then scaled by L, as the interpolator inserts L-1 zeros.
	cutoff := 0.5 / float64(max(l, m)) * 0.9
	numTaps := l * tapsPerPhase
	mid := float64(numTaps-1) / 2
	banks := make([][2]float64, numTaps)
	var sum float64
	for i := 0; i < numTaps; i++ {
		n := float64(i) - mid
		s := 2 * cutoff
		if n != 0 {
			s = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		c := s * (0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(numTaps-1)))
		sum += c
		banks[i%l*tapsPerPhase+tapsPerPhase-1-i/l][0] = c
	}
	for k := range banks {
		c := banks[k][0] / sum * float64(l)
		banks[k] = [2]float64{c, c}
	}
	return &Resampler{l: l, m: m, taps: tapsPerPhase, banks: banks,
		hist: make(Samples, 2*tapsPerPhase)}
}

// GroupDelayOutputSamples returns the anti-aliasing filter's group delay in
// output-rate samples. The lowpass is linear-phase, so its delay is exactly
// (numTaps-1)/2 positions of the virtual upsampled stream, which advances M
// positions per output sample.
func (r *Resampler) GroupDelayOutputSamples() float64 {
	return float64(r.l*r.taps-1) / float64(2*r.m)
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
// The first tapsPerPhase-1 inputs of a call go through the history ring,
// whose window still holds samples of earlier calls; every later output's
// window lies wholly in the call's input, and linear reads it from there.
// The ring is then reloaded from the call's last tapsPerPhase inputs.
//
// The returned slice is the resampler's own buffer: it stays valid only
// until the next call to Process, which overwrites it. Callers that keep
// output across calls must copy it.
func (r *Resampler) Process(in Samples) Samples {
	taps := r.taps
	if need := len(in)*r.l/r.m + 1; cap(r.out) < need {
		// Doubling bounds the reallocations when block sizes creep up, as
		// when a victim's rate fallback lengthens every frame.
		r.out = make(Samples, 0, max(need, 2*cap(r.out)))
	}
	out := r.out[:0]
	hist, pos, fill, acc := r.hist, r.pos, r.fill, r.acc
	head := min(len(in), taps-1)
	for _, x := range in[:head] {
		hist[pos] = x
		hist[pos+taps] = x
		if pos++; pos == taps {
			pos = 0
		}
		if fill < taps {
			fill++
		}
		win := hist[pos+taps-fill : pos+taps]
		// Each input sample advances the virtual upsampled stream by L
		// positions; emit an output whenever the accumulator crosses M.
		for acc < r.l {
			out = append(out, dot(r.bank(acc)[taps-fill:], win))
			acc += r.m
		}
		acc -= r.l
	}
	if head < len(in) {
		out, acc = r.linear(out, in, head, acc)
		pos, fill = 0, taps
		copy(hist, in[len(in)-taps:])
		copy(hist[taps:], hist[:taps])
	}
	r.pos, r.fill, r.acc = pos, fill, acc
	r.out = out
	return out
}

// bank returns phase p's polyphase bank.
func (r *Resampler) bank(p int) [][2]float64 {
	return r.banks[p*r.taps : (p+1)*r.taps]
}

// linear emits the outputs of in[from:], from >= taps-1, reading each
// window straight from in. It splits the input into dense stretches, whose
// windows each hold a nonzero sample, and zero stretches, whose windows
// are all zero. A zero stretch's outputs are written as 0 without the dot:
// its accumulators start at +0 and every product is a signed zero, so the
// dot is exactly +0.
func (r *Resampler) linear(out, in Samples, from, acc int) (Samples, int) {
	for i := from; i < len(in); {
		j := zeroWindow(in, i, r.taps)
		out, acc = r.dense(out, in, i, j, acc)
		// The window ending at in[j] is all zero, and so is each later one
		// up to the next nonzero sample.
		for i = j; i < len(in) && in[i] == 0; i++ {
		}
		n, next := r.outputs(i-j, acc)
		o := len(out)
		out = out[:o+n]
		clear(out[o:])
		acc = next
	}
	return out, acc
}

// zeroWindow returns the first e >= i, i >= taps-1, whose window
// in[e+1-taps:e+1] is all zero, or len(in). It reads each candidate window
// from its newest sample back: a nonzero sample at k rules out every
// window ending before k+taps, so on dense input it reads one sample in
// taps.
func zeroWindow(in Samples, i, taps int) int {
	for e := i; e < len(in); {
		k := e
		for k > e-taps && in[k] == 0 {
			k--
		}
		if k == e-taps {
			return e
		}
		e = k + taps
	}
	return len(in)
}

// outputs returns how many outputs n inputs emit from the phase
// accumulator acc, and the accumulator after them. The outputs fall at
// the positions acc, acc+M, … of the virtual upsampled stream below n·L.
func (r *Resampler) outputs(n, acc int) (int, int) {
	c := 0
	if span := r.l*n - acc; span > 0 {
		c = (span + r.m - 1) / r.m
	}
	return c, acc + c*r.m - r.l*n
}

// dense emits the outputs of the inputs in[a:b], a >= taps-1, with one dot
// each. On amd64 the SSE2 kernel computes them four at a time, and the Go
// loop the remainder.
func (r *Resampler) dense(out, in Samples, a, b, acc int) (Samples, int) {
	n, next := r.outputs(b-a, acc)
	o := len(out)
	out = out[:o+n]
	// Output k falls at position acc + k·M: phase p of input i.
	k, i, p := 0, a+acc/r.l, acc%r.l
	if resampleKernel && n >= 4 {
		k = n &^ 3
		resampleDots(out[o:o+k], &in[i+1-r.taps], r.banks, p, r.taps, r.m/r.l, r.m%r.l)
		q := p + k*r.m
		i, p = i+q/r.l, q%r.l
	}
	for ; k < n; k++ {
		out[o+k] = dot(r.bank(p), in[i+1-r.taps:i+1])
		for p += r.m; p >= r.l; p -= r.l {
			i++
		}
	}
	return out, next
}

// dot is one polyphase output: a bank, stored oldest tap first, against
// the window in stream order, summed from the newest sample back.
// Multiplying by the real tap on each rail is bit-equal to the complex
// product x*complex(c, 0) for finite x.
func dot(bank [][2]float64, w Samples) complex128 {
	bank = bank[:len(w)]
	var re, im float64
	for j := len(w) - 1; j >= 0; j-- {
		x, c := w[j], bank[j][0]
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
