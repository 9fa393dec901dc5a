package xcorr

import (
	"fmt"
	"math"

	"repro/internal/fixed"
)

// Reference is the original 64-iteration scalar multiply-accumulate
// implementation of the cross-correlator, kept verbatim as the bit-exact
// specification of the datapath. The production Correlator runs the packed
// popcount kernel instead; the differential and fuzz tests assert that the
// two produce identical (metric, trigger) pairs for every possible input,
// including the warm-up holdoff while the delay line fills.
//
// Reference is the literal transcription of the FPGA block diagram (one
// multiply-accumulate per tap per sample) and is what new kernel variants
// must be validated against. It is not used on the hot path.
type Reference struct {
	coefI [Length]fixed.Coeff3
	coefQ [Length]fixed.Coeff3

	signI [Length]int8 // circular history of sliced sign bits
	signQ [Length]int8
	pos   int
	warm  int // samples consumed, saturates at Length

	threshold uint32
	metric    uint32
}

// NewReference returns a reference correlator with all-zero coefficients
// (never triggers) and threshold at maximum.
func NewReference() *Reference {
	return &Reference{threshold: math.MaxUint32}
}

// SetCoefficients loads the two 64-tap 3-bit coefficient banks.
func (c *Reference) SetCoefficients(i, q []fixed.Coeff3) error {
	if len(i) != Length || len(q) != Length {
		return fmt.Errorf("xcorr: coefficient banks must be %d taps, got %d/%d",
			Length, len(i), len(q))
	}
	copy(c.coefI[:], i)
	copy(c.coefQ[:], q)
	return nil
}

// SetThreshold sets the trigger comparison threshold on the squared metric.
func (c *Reference) SetThreshold(t uint32) { c.threshold = t }

// Reset clears the sample history (but keeps coefficients and threshold).
func (c *Reference) Reset() {
	c.signI = [Length]int8{}
	c.signQ = [Length]int8{}
	c.pos = 0
	c.warm = 0
	c.metric = 0
}

// Process consumes one baseband sample and returns the correlation metric
// and whether the trigger comparator fired on this sample.
func (c *Reference) Process(s fixed.IQ) (metric uint32, trigger bool) {
	si, sq := s.SignBit()
	c.signI[c.pos] = si
	c.signQ[c.pos] = sq
	c.pos++
	if c.pos == Length {
		c.pos = 0
	}
	if c.warm < Length {
		c.warm++
	}

	// The oldest sample in the history aligns with coefficient 0. After the
	// pos++ above, the oldest sample sits at index c.pos.
	var sumII, sumQQ, sumQI, sumIQ int32
	idx := c.pos
	for k := 0; k < Length; k++ {
		i := int32(c.signI[idx])
		q := int32(c.signQ[idx])
		ci := int32(c.coefI[k])
		cq := int32(c.coefQ[k])
		sumII += i * ci
		sumQQ += q * cq
		sumQI += q * ci
		sumIQ += i * cq
		idx++
		if idx == Length {
			idx = 0
		}
	}
	// The coefficient banks already hold the conjugated template, so the
	// matched output is the plain complex product Σ s·c:
	// (sI + j·sQ)(cI + j·cQ) = (sI·cI − sQ·cQ) + j(sQ·cI + sI·cQ).
	re := sumII - sumQQ
	im := sumQI + sumIQ
	m := uint32(re*re) + uint32(im*im)
	c.metric = m
	// Hold off until the window has filled once so start-up garbage in the
	// delay line cannot fire the comparator.
	trigger = c.warm == Length && m >= c.threshold
	return m, trigger
}
