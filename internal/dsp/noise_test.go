package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestNoisePowerMatchesSetting(t *testing.T) {
	for _, p := range []float64{0.01, 1, 100} {
		n := NewNoiseSource(p, 42)
		b := n.Block(200000)
		got := b.Power()
		if math.Abs(got-p) > 0.05*p {
			t.Errorf("noise power = %v, want %v", got, p)
		}
	}
}

func TestNoiseReproducible(t *testing.T) {
	a := NewNoiseSource(1, 7).Block(64)
	b := NewNoiseSource(1, 7).Block(64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical noise")
		}
	}
	c := NewNoiseSource(1, 8).Block(64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical noise")
	}
}

func TestNoiseZeroAndNegativePower(t *testing.T) {
	n := NewNoiseSource(0, 1)
	if s := n.Sample(); s != 0 {
		t.Errorf("zero-power noise sample = %v", s)
	}
	n.SetPower(-5)
	if n.Power() != 0 {
		t.Error("negative power should clamp to 0")
	}
}

func TestNoiseAddTo(t *testing.T) {
	n := NewNoiseSource(1, 3)
	x := make(Samples, 100000)
	n.AddTo(x)
	if p := x.Power(); math.Abs(p-1) > 0.05 {
		t.Errorf("AddTo power = %v, want ~1", p)
	}
}

func TestNoiseZeroMean(t *testing.T) {
	n := NewNoiseSource(1, 9)
	b := n.Block(200000)
	var mean complex128
	for _, v := range b {
		mean += v
	}
	mean /= complex(float64(len(b)), 0)
	if math.Hypot(real(mean), imag(mean)) > 0.01 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
}

// refNoise is the stream NoiseSource must reproduce: math/rand's
// NormFloat64 from a seeded rngSource, scaled by std, I then Q.
type refNoise struct {
	rng *rand.Rand
	std float64
}

func newRefNoise(power float64, seed int64) *refNoise {
	return &refNoise{rng: rand.New(rand.NewSource(seed)), std: math.Sqrt(power / 2)}
}

func (r *refNoise) sample() complex128 {
	re := r.rng.NormFloat64() * r.std
	return complex(re, r.rng.NormFloat64()*r.std)
}

// TestNoiseMatchesMathRand pins NoiseSource Float64bits-equal to
// rand.New(rand.NewSource(seed)).NormFloat64()*std over more than a
// million draws per seed, covering seeds that math/rand reduces modulo
// 2^31-1 (2^31-1 itself maps to its zero-seed constant).
func TestNoiseMatchesMathRand(t *testing.T) {
	const samples = 1 << 19 // 2^20 draws, I then Q
	for _, seed := range []int64{0, 1, -5, 9999, 1<<31 - 1, 1 << 40} {
		got := NewNoiseSource(3, seed).Block(samples)
		ref := newRefNoise(3, seed)
		for i, g := range got {
			if w := ref.sample(); !sameBits(g, w) {
				t.Fatalf("seed %d: sample %d = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestNoiseChunkingMatchesMathRand feeds AddTo in chunks that end just
// before, on and just after a 607-word refill, mixed with Sample calls,
// over a signal that is not zero, and checks every output against the
// reference.
func TestNoiseChunkingMatchesMathRand(t *testing.T) {
	sig := resamplerDiffInput(3 * 4096)
	for _, chunk := range []int{1, 606, 607, 608, 4096} {
		n := NewNoiseSource(0.5, 77)
		ref := newRefNoise(0.5, 77)
		for off, round := 0, 0; off < len(sig); round++ {
			if round%3 == 2 {
				g, w := n.Sample(), ref.sample()
				if !sameBits(g, w) {
					t.Fatalf("chunk %d: Sample at %d = %v, math/rand %v", chunk, off, g, w)
				}
				continue
			}
			part := sig[off:min(off+chunk, len(sig))]
			got := n.AddTo(part.Clone())
			for i, x := range part {
				if w := x + ref.sample(); !sameBits(got[i], w) {
					t.Fatalf("chunk %d: AddTo sample %d = %v, math/rand %v", chunk, off+i, got[i], w)
				}
			}
			off += len(part)
		}
	}
}

func TestNoiseAllocations(t *testing.T) {
	if a := testing.AllocsPerRun(20, func() { NewNoiseSource(1, 5) }); a != 1 {
		t.Errorf("NewNoiseSource allocates %v times, want 1", a)
	}
	n := NewNoiseSource(1, 5)
	x := make(Samples, 4096)
	if a := testing.AllocsPerRun(20, func() { n.AddTo(x) }); a != 0 {
		t.Errorf("AddTo allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { n.Sample() }); a != 0 {
		t.Errorf("Sample allocates %v times, want 0", a)
	}
}

func BenchmarkNoiseAddTo(b *testing.B) {
	n := NewNoiseSource(1, 1)
	x := make(Samples, 4096)
	b.SetBytes(int64(len(x)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.AddTo(x)
	}
}
