package fixed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the block quantizers: QuantizeFused must produce
// I/Q planes and packed sign words bit-identical to Quantize + SignBit per
// sample, and the sign-only SignBits the same sign words on each of its
// loops (withSignLoops), for every input the scalar path accepts —
// including the rounding boundaries its branch-reduced round is built
// around and non-finite values.

// hasSignKernel is signKernel as package init set it, before any test
// changes it.
var hasSignKernel = signKernel

// withSignLoops runs f once per SignBits loop this machine has: the Go
// loop, and the SSE2 kernel where there is one. It restores signKernel
// after.
func withSignLoops(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() { signKernel = hasSignKernel }()
	loops := []bool{false}
	if hasSignKernel {
		loops = append(loops, true)
	}
	for _, signKernel = range loops {
		name := "go"
		if signKernel {
			name = "kernel"
		}
		t.Run(name, f)
	}
}

func checkFused(t *testing.T, src []complex128) {
	t.Helper()
	n := len(src)
	iPlane := make([]int16, n)
	qPlane := make([]int16, n)
	words := (n + 63) / 64
	signI := make([]uint64, words)
	signQ := make([]uint64, words)
	QuantizeFused(src, iPlane, qPlane, signI, signQ)

	for k, v := range src {
		want := Quantize(v)
		if iPlane[k] != want.I || qPlane[k] != want.Q {
			t.Fatalf("sample %d (%v): fused (%d,%d) != Quantize (%d,%d)",
				k, v, iPlane[k], qPlane[k], want.I, want.Q)
		}
		wantSI := want.I < 0
		wantSQ := want.Q < 0
		if gotSI := signI[k/64]>>(k%64)&1 != 0; gotSI != wantSI {
			t.Fatalf("sample %d: sign-I bit %v != %v", k, gotSI, wantSI)
		}
		if gotSQ := signQ[k/64]>>(k%64)&1 != 0; gotSQ != wantSQ {
			t.Fatalf("sample %d: sign-Q bit %v != %v", k, gotSQ, wantSQ)
		}
	}
	// Bits beyond n-1 in the last words must be zero (the block datapath's
	// quiet-span scan relies on it).
	if n%64 != 0 {
		mask := ^uint64(0) << (n % 64)
		if signI[words-1]&mask != 0 || signQ[words-1]&mask != 0 {
			t.Fatalf("unused bits of last sign words not zero: %x %x",
				signI[words-1]&mask, signQ[words-1]&mask)
		}
	}

	// The sign-only kernel must write the same words, overwriting whatever
	// the buffers held.
	onlyI := make([]uint64, words)
	onlyQ := make([]uint64, words)
	for w := range onlyI {
		onlyI[w], onlyQ[w] = ^uint64(0), ^uint64(0)
	}
	SignBits(src, onlyI, onlyQ)
	for w := range onlyI {
		if onlyI[w] != signI[w] || onlyQ[w] != signQ[w] {
			t.Fatalf("word %d: SignBits (%x,%x) != QuantizeFused (%x,%x)",
				w, onlyI[w], onlyQ[w], signI[w], signQ[w])
		}
	}
}

// roundEdgeValues are the inputs the branch-reduced round must get exactly
// right: half-LSB boundaries on both sides of zero, the largest double below
// 0.5 (whose +0.5 sum rounds up to 1.0 in floating point), the saturation
// zone edges, and non-finite rails.
func roundEdgeValues() []float64 {
	nearHalf := math.Nextafter(0.5, 0) // 0.49999999999999994
	vals := []float64{
		0, math.Copysign(0, -1),
		0.5 / FullScale, -0.5 / FullScale,
		nearHalf / FullScale, -nearHalf / FullScale,
		math.Nextafter(0.5/FullScale, 0), math.Nextafter(0.5/FullScale, 1),
		1, -1, 0.9999999, -0.9999999,
		32767.5 / FullScale, -32767.5 / FullScale,
		32768.5 / FullScale, -32768.5 / FullScale,
		math.Nextafter(32767.5/FullScale, 0), math.Nextafter(32768.5/FullScale, -2),
		2, -2, 1e300, -1e300, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	// Every representable int16 code boundary ±ulp around a few codes.
	for _, code := range []float64{1, 2, 3, 100, 16383, 16384, 32766, 32767} {
		x := (code - 0.5) / FullScale
		vals = append(vals, x, math.Nextafter(x, 0), math.Nextafter(x, 2), -x)
	}
	return vals
}

func TestQuantizeFusedRoundingEdges(t *testing.T) {
	edges := roundEdgeValues()
	src := make([]complex128, 0, len(edges)*len(edges)/4+len(edges))
	for i := 0; i < len(edges); i++ {
		src = append(src, complex(edges[i], edges[len(edges)-1-i]))
	}
	for _, e := range edges {
		src = append(src, complex(e, -e))
	}
	withSignLoops(t, func(t *testing.T) { checkFused(t, src) })
}

func TestQuantizeFusedRandomFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFA57))
	src := make([]complex128, 1025) // odd length: partial last word
	for k := range src {
		// Mix magnitudes across the dynamic range, sprinkling exact
		// half-codes and saturating values.
		switch k % 5 {
		case 0:
			src[k] = complex(float64(rng.Intn(1<<16)-32768)/32768, float64(rng.Intn(1<<16)-32768)/32768)
		case 1:
			src[k] = complex(rng.NormFloat64()*3, rng.NormFloat64()*3)
		case 2:
			src[k] = complex((float64(rng.Intn(65536))-32767.5)/FullScale, 0)
		case 3:
			src[k] = complex(rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4)
		default:
			src[k] = complex(rng.NormFloat64()*40000, rng.NormFloat64()*40000)
		}
	}
	withSignLoops(t, func(t *testing.T) { checkFused(t, src) })
}

func TestQuantizeFusedNaN(t *testing.T) {
	// NaN quantizes to 0 whatever its sign bit, so neither NaN is negative.
	nan, negNaN := math.NaN(), math.Copysign(math.NaN(), -1)
	src := []complex128{
		complex(nan, 0), complex(0, nan), complex(nan, nan),
		complex(nan, 1), complex(-1, nan),
		complex(negNaN, 0), complex(0, negNaN), complex(negNaN, negNaN),
		complex(negNaN, -1), complex(-1, negNaN), complex(negNaN, nan),
	}
	// Whole words too, so the kernel sees NaN in every position of a step.
	for len(src) < 128 {
		src = append(src, src[len(src)%11])
	}
	withSignLoops(t, func(t *testing.T) { checkFused(t, src) })
}

func TestQuantizeFusedBlockLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1E45))
	withSignLoops(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 4097} {
			src := make([]complex128, n)
			for k := range src {
				src[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			checkFused(t, src)
		}
	})
}

// FuzzSignBits feeds raw float bits, 16 bytes a sample, to SignBits on each
// of its loops: the loops must write the same words, and each bit must be
// Quantize(x).I < 0 (or .Q), with the last word's unused bits zero.
func FuzzSignBits(f *testing.F) {
	var seed []byte
	for _, v := range roundEdgeValues() {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	nan := math.Float64bits(math.NaN())
	seed = binary.LittleEndian.AppendUint64(seed, nan)
	seed = binary.LittleEndian.AppendUint64(seed, nan|1<<63)
	f.Add(seed)
	f.Add(append(append(seed, seed...), seed[:40]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]complex128, min(len(data)/16, 4097))
		for i := range src {
			src[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
		}
		words := (len(src) + 63) / 64
		run := func(kernel bool) ([]uint64, []uint64) {
			defer func() { signKernel = hasSignKernel }()
			signKernel = kernel
			sI, sQ := make([]uint64, words), make([]uint64, words)
			for w := range sI {
				sI[w], sQ[w] = ^uint64(0), ^uint64(0)
			}
			SignBits(src, sI, sQ)
			return sI, sQ
		}
		wantI, wantQ := make([]uint64, words), make([]uint64, words)
		for k, v := range src {
			q := Quantize(v)
			if q.I < 0 {
				wantI[k/64] |= 1 << (k % 64)
			}
			if q.Q < 0 {
				wantQ[k/64] |= 1 << (k % 64)
			}
		}
		loops := []bool{false}
		if hasSignKernel {
			loops = append(loops, true)
		}
		for _, kernel := range loops {
			gotI, gotQ := run(kernel)
			for w := range wantI {
				if gotI[w] != wantI[w] || gotQ[w] != wantQ[w] {
					t.Fatalf("kernel=%v word %d: (%x,%x), Quantize signs (%x,%x)",
						kernel, w, gotI[w], gotQ[w], wantI[w], wantQ[w])
				}
			}
		}
	})
}

// BenchmarkSignBits packs one 4096-sample block of noise on each loop.
func BenchmarkSignBits(b *testing.B) {
	rng := rand.New(rand.NewSource(0x516))
	src := make([]complex128, 4096)
	for k := range src {
		src[k] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	signI, signQ := make([]uint64, 64), make([]uint64, 64)
	for _, kernel := range []bool{false, true} {
		if kernel && !hasSignKernel {
			continue
		}
		name := "go"
		if kernel {
			name = "kernel"
		}
		b.Run(name, func(b *testing.B) {
			defer func() { signKernel = hasSignKernel }()
			signKernel = kernel
			b.SetBytes(int64(16 * len(src)))
			for i := 0; i < b.N; i++ {
				SignBits(src, signI, signQ)
			}
		})
	}
}
