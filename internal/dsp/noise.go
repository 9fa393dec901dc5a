package dsp

import "math"

// NoiseSource produces complex white Gaussian noise with a configurable
// per-sample power. Every experiment in the framework seeds its own source so
// runs are reproducible; NoiseSource is not safe for concurrent use.
//
// The stream is Float64bits-equal to
// rand.New(rand.NewSource(seed)).NormFloat64()*std, drawn I then Q, but is
// generated here without the interface calls: vec holds rngLen consecutive
// words of math/rand's additive lagged-Fibonacci stream
// y[n] = y[n-607] + y[n-273], in order, and the ziggurat's fast path reads
// them directly (mathrand.go holds the copied tables).
type NoiseSource struct {
	vec   [rngLen]int64
	pos   int // index of the next unread word of vec
	power float64
	std   float64 // per-dimension standard deviation
}

// NewNoiseSource returns a WGN source with the given total per-sample power
// (E|x|^2 = power, split evenly between I and Q) and PRNG seed.
func NewNoiseSource(power float64, seed int64) *NoiseSource {
	n := &NoiseSource{}
	n.seed(seed)
	n.SetPower(power)
	return n
}

// seed runs math/rand's rngSource.Seed and its first rngLen Uint64 steps on
// a stack copy of the feedback register and keeps those rngLen outputs:
// from there on each word is the sum of the words 607 and 273 before it.
func (n *NoiseSource) seed(seed int64) {
	var reg [rngLen]int64
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u int64
			u = int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			reg[i] = u
		}
	}
	tap, feed := 0, rngLen-rngTap
	for k := range n.vec {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		y := reg[feed] + reg[tap]
		reg[feed] = y
		n.vec[k] = y
	}
}

// refill advances vec by rngLen words in place: word k of the new block is
// word k of the old one plus the word 273 before it in the stream, which is
// old word k+334 for k < 273 and new word k-273 after that.
func (n *NoiseSource) refill() {
	b := &n.vec
	for k := 0; k < rngTap; k++ {
		b[k] += b[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		b[k] += b[k-rngTap]
	}
	n.pos = 0
}

// int63 is rand.Rand.Int63: the next word with its sign bit cleared.
func (n *NoiseSource) int63() int64 {
	if n.pos == rngLen {
		n.refill()
	}
	y := n.vec[n.pos]
	n.pos++
	return y & math.MaxInt64
}

// fast is the ziggurat's fast path of rand.Rand.NormFloat64, taken for
// more than 99% of draws, small enough to inline, with a branchless |j|.
// It consumes a word only when it returns ok; otherwise the draw, and a
// draw that finds vec used up, goes through normalSlow.
func (n *NoiseSource) fast() (v float64, ok bool) {
	pos := n.pos
	if uint(pos) >= rngLen {
		return 0, false
	}
	j := int32(uint64(n.vec[pos]) >> 31) // rand.Rand.Uint32, as int32
	i := j & 0x7F
	if s := j >> 31; uint32((j^s)-s) >= kn[i] {
		return 0, false
	}
	n.pos = pos + 1
	return float64(j) * float64(wn[i]), true
}

// normalSlow is rand.Rand.NormFloat64's loop, copied exactly, with
// Float64's retry on 1.
func (n *NoiseSource) normalSlow() float64 {
	for {
		j := int32(n.int63() >> 31)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(n.uniform()) * (1.0 / rn)
				y := -math.Log(n.uniform())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(n.uniform())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// uniform is rand.Rand.Float64.
func (n *NoiseSource) uniform() float64 {
again:
	f := float64(n.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
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
	re, ok := n.fast()
	if !ok {
		re = n.normalSlow()
	}
	im, ok := n.fast()
	if !ok {
		im = n.normalSlow()
	}
	return complex(re*n.std, im*n.std)
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
	std := n.std
	for i := range x {
		re, ok := n.fast()
		if !ok {
			re = n.normalSlow()
		}
		im, ok := n.fast()
		if !ok {
			im = n.normalSlow()
		}
		x[i] += complex(re*std, im*std)
	}
	return x
}
