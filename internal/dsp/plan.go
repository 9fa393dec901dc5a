package dsp

import "fmt"

// FFTPlan is a fixed-size transform plan in the FFTW sense: the bit-reversal
// permutation and every stage's twiddle factors are computed once at plan
// construction, so the per-transform work is nothing but butterflies over
// caller-provided storage. Forward and Inverse are in-place and allocation
// free, which is what lets the OFDM modems run whole frames through pooled
// scratch buffers.
//
// The plan is bit-exact against the generic radix-2 kernel its tests keep as
// the reference (FFT/IFFT in plan_test.go): the twiddle tables are
// generated by the same incremental-rotation recurrence the generic kernel
// evaluates on the fly, and the Inverse folds the 1/N normalization into the
// butterfly passes as a per-stage 0.5 — an exact power-of-two scaling that
// commutes with every add and multiply, so the differential suite can pin
// the planned path against that kernel with exact equality.
//
// A plan is immutable after construction and safe for concurrent use by
// multiple goroutines (each transform mutates only its argument).
type FFTPlan struct {
	n int
	// revPairs lists the (i, j) index pairs, i < j, swapped by the
	// bit-reversal permutation. Pairs are disjoint, so application order is
	// irrelevant and the table form costs one predictable load per swap
	// instead of the bit-twiddling loop per element.
	revPairs [][2]int32
	// fwd and inv hold the per-stage twiddle factors, stages concatenated:
	// the stage with butterfly span `length` contributes length/2 entries,
	// for n-1 entries total per direction.
	fwd, inv []complex128
}

// FFT64 is the shared 64-point plan used by the 802.11a/g OFDM modem — the
// transform size is fixed by the standard, so every symbol in the system can
// go through one precomputed plan.
var FFT64 = NewFFTPlan(64)

// NewFFTPlan builds a plan for n-point transforms. n must be a power of two;
// NewFFTPlan panics otherwise.
func NewFFTPlan(n int) *FFTPlan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT plan size %d is not a power of two", n))
	}
	p := &FFTPlan{n: n}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			p.revPairs = append(p.revPairs, [2]int32{int32(i), int32(j)})
		}
	}
	p.fwd = twiddleTable(n, false)
	p.inv = twiddleTable(n, true)
	return p
}

// twiddleTable precomputes the butterfly weights for every stage using the
// exact incremental recurrence (w *= wl) of the generic kernel, so the
// planned transform reproduces its rounding behaviour bit for bit.
func twiddleTable(n int, inverse bool) []complex128 {
	out := make([]complex128, 0, n-1)
	for length := 2; length <= n; length <<= 1 {
		wl := stageRoot(length, inverse)
		w := complex(1, 0)
		for k := 0; k < length/2; k++ {
			out = append(out, w)
			w *= wl
		}
	}
	return out
}

func (p *FFTPlan) check(x Samples) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFT plan size %d applied to %d samples", p.n, len(x)))
	}
}

// Forward computes the in-place FFT of x. len(x) must equal the plan size.
// Bit-exact against the generic kernel; allocation free.
func (p *FFTPlan) Forward(x Samples) {
	p.check(x)
	for _, pr := range p.revPairs {
		x[pr[0]], x[pr[1]] = x[pr[1]], x[pr[0]]
	}
	off := 0
	for length := 2; length <= p.n; length <<= 1 {
		half := length >> 1
		stage := p.fwd[off : off+half]
		for start := 0; start < p.n; start += length {
			for k, w := range stage {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
			}
		}
		off += half
	}
}

// Inverse computes the in-place inverse FFT of x including the 1/N scaling,
// which is folded into the butterfly passes as an exact 0.5 per stage.
// Value-exact against the generic kernel's inverse (up to IEEE zero signs);
// allocation free.
func (p *FFTPlan) Inverse(x Samples) {
	p.check(x)
	for _, pr := range p.revPairs {
		x[pr[0]], x[pr[1]] = x[pr[1]], x[pr[0]]
	}
	off := 0
	for length := 2; length <= p.n; length <<= 1 {
		half := length >> 1
		stage := p.inv[off : off+half]
		for start := 0; start < p.n; start += length {
			for k, w := range stage {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = complex((real(u)+real(v))*0.5, (imag(u)+imag(v))*0.5)
				x[start+k+half] = complex((real(u)-real(v))*0.5, (imag(u)-imag(v))*0.5)
			}
		}
		off += half
	}
}
