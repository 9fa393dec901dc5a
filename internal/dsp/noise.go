package dsp

import (
	"math"
	"math/rand"
)

// NoiseSource produces complex white Gaussian noise with a configurable
// per-sample power. Every experiment in the framework seeds its own source so
// runs are reproducible; NoiseSource is not safe for concurrent use.
type NoiseSource struct {
	rng   *rand.Rand
	power float64
	std   float64 // per-dimension standard deviation
}

// NewNoiseSource returns a WGN source with the given total per-sample power
// (E|x|^2 = power, split evenly between I and Q) and PRNG seed.
func NewNoiseSource(power float64, seed int64) *NoiseSource {
	n := &NoiseSource{rng: rand.New(rand.NewSource(seed))}
	n.SetPower(power)
	return n
}

// SetPower changes the per-sample noise power.
func (n *NoiseSource) SetPower(power float64) {
	if power < 0 {
		power = 0
	}
	n.power = power
	n.std = math.Sqrt(power / 2)
}

// Power returns the configured per-sample noise power.
func (n *NoiseSource) Power() float64 { return n.power }

// Sample returns one complex Gaussian sample.
func (n *NoiseSource) Sample() complex128 {
	return complex(n.rng.NormFloat64()*n.std, n.rng.NormFloat64()*n.std)
}

// Block fills and returns a buffer of count noise samples.
func (n *NoiseSource) Block(count int) Samples {
	out := make(Samples, count)
	for i := range out {
		out[i] = n.Sample()
	}
	return out
}

// AddTo adds noise to x in place and returns x.
func (n *NoiseSource) AddTo(x Samples) Samples {
	for i := range x {
		x[i] += n.Sample()
	}
	return x
}
