package wifi

import "sync"

// Bit-packed Viterbi fast path. The K=7 code has exactly 64 trellis states,
// so one uint64 per trellis step records every add-compare-select decision:
// bit ns set means state ns took its high predecessor (ns>>1 | 32) rather
// than its low one (ns>>1). That replaces the reference decoder's
// [][numStates]uint8 predecessor matrix — 64 bytes per step, allocated per
// call — with 8 bytes per step in a pooled slice, and turns the traceback
// into shift/mask arithmetic. Path metrics live in two fixed arrays that
// ping-pong per step, and the per-branch Hamming cost comes from the bmLUT
// row selected once per step by the received coded pair.
//
// Each step is a branchless butterfly. States k and k+32 are the two
// predecessors of both next-states 2k and 2k+1, and because both
// generators tap the newest and the oldest register bit, the four branch
// outputs of a butterfly are p, p^3, p^3, p with p = branchPair[k][0]
// (TestButterflySymmetry pins this). So a butterfly needs only two costs,
// cost[p] and cost[p^3], and each compare-select takes the sign mask of
// b−a instead of a data-dependent branch, which noisy frames mispredict.
//
// The decode is output-bit-exact against tracebackDecode: both relax the
// two predecessors of each next-state in the same order (low predecessor
// first, replaced only on strictly smaller metric), so ties resolve
// identically, and the branch costs are the same Hamming/erasure metric.

// viterbiScratch holds the pooled working storage of one packed decode.
type viterbiScratch struct {
	metric    [numStates]int32 // path metrics (current step)
	next      [numStates]int32 // path metrics (next step)
	decisions []uint64         // one decision word per trellis step
	seq       []uint8          // depunctured coded stream (2 per data bit)
}

var viterbiPool = sync.Pool{New: func() any { return new(viterbiScratch) }}

// vitInf is the unreachable-state metric. Branch costs add at most 2 per
// step, so reachable metrics stay far below it for any frame the 12-bit
// LENGTH field can describe, and neither int32 sums nor the b−a difference
// of the select can overflow.
const vitInf = int32(1) << 29

// decode runs the packed add-compare-select recursion over the
// erasure-marked coded stream seq (len(seq) must be 2*len(out)) and writes
// the decoded data bits to out. Allocation free once the scratch has grown
// to the frame's step count.
func (v *viterbiScratch) decode(seq []uint8, out []uint8, terminated bool) {
	n := len(out)
	if cap(v.decisions) < n {
		v.decisions = make([]uint64, n)
	}
	decisions := v.decisions[:n]
	m, nx := &v.metric, &v.next
	m[0] = 0
	for s := 1; s < numStates; s++ {
		m[s] = vitInf
	}

	for t := range decisions {
		rA, rB := seq[2*t], seq[2*t+1]
		if rA > 3 {
			rA = 3 // out-of-alphabet: every branch mismatches (see bmLUT)
		}
		if rB > 3 {
			rB = 3
		}
		decisions[t] = butterflies(m, nx, &bmLUT[rA][rB])
		m, nx = nx, m
	}

	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if m[s] < m[best] {
				best = s
			}
		}
	}
	state := best
	for t := n - 1; t >= 0; t-- {
		out[t] = uint8(state & 1)
		state = state>>1 | int(decisions[t]>>uint(state)&1)<<5
	}
}

// butterflies runs one trellis step: the 32 butterflies from metrics m into
// nx under the step's branch costs, returning the step's decision word.
// Kept out of decode's loop so its working set fits the registers.
func butterflies(m, nx *[numStates]int32, row *[4]int32) uint64 {
	cost := *row
	var dec uint64
	// Descending k shifts each butterfly's two decision bits in at the
	// bottom, so butterfly k ends at bits 2k and 2k+1.
	for k := numStates/2 - 1; k >= 0; k-- {
		p := branchPair[k][0] & 3
		cp, cq := cost[p], cost[p^3]
		m0, m1 := m[k], m[k+numStates/2]
		// Next-state 2k: low predecessor via p, high via p^3; 2k+1: low
		// via p^3, high via p. Each mask is all ones exactly when b < a,
		// so ties keep the low predecessor.
		a0, a1 := m0+cp, m0+cq
		d0, d1 := m1+cq-a0, m1+cp-a1
		l0, l1 := d0>>31, d1>>31
		nx[2*k] = a0 + d0&l0
		nx[2*k+1] = a1 + d1&l1
		dec = dec<<2 | uint64(uint32(l1)&2|uint32(l0)&1)
	}
	return dec
}
