package wifi

// Bit-packed SWAR Viterbi fast path. The K=7 code has exactly 64 trellis
// states, so one uint64 per trellis step records every add-compare-select
// decision, and the 64 path metrics fit as uint8 lanes in eight uint64
// words, so one step is eight words of add, compare and select instead of
// 64 scalar ones.
//
// Rotating layout. State s at step t sits at lane position ror6^t(s), the
// 6-bit rotate right by t mod 6. Butterfly k reads states k and k|32 and
// writes states 2k and 2k+1; since ror6(2k) = k and ror6(2k+1) = k|32, its
// two outputs land exactly on its two inputs' positions, so no step ever
// shuffles lanes. The two lanes of a butterfly differ in position bit
// 5 − t mod 6. Position X is byte X&7 of word X>>3, so for phases 0–2 the
// partner sits at the same byte of word w^4, w^2 or w^1, and for phases 3–5
// in the same word, a 32-, 16- or 8-bit swap away. The lane of state s < 32
// becomes state 2k with s as its low predecessor; the lane of s ≥ 32 (the
// phase's "high lane") becomes 2k+1 with s as its high predecessor.
//
// Per phase and received pair, init precomputes from branchPair and bmLUT
// the cost word of each lane's low- and high-predecessor branch
// (swarCost). The compare ((hi|0x80…)−lo)&0x80… sets a lane's top bit
// exactly when lo ≤ hi, so ties keep the low predecessor, as in
// tracebackDecode. A set decision bit means the lane took its high
// predecessor; lane X is bit 8·(X&7)+(X>>3) of the step's decision word.
//
// Lane bound. Each branch costs at most 2. Unreachable states start at 64,
// reachable ones gain at most 2 per step (so at most 12 in the first six
// steps, after which every state is reachable), and a reachable
// predecessor always beats an unreachable one, so the decisions of
// reachable states are those of tracebackDecode. Once every state is reachable, any state
// is six steps from the best one, so the spread of the metrics is at most
// 6·2 = 12. Every 16 steps the horizontal minimum is subtracted from all
// lanes, so no lane exceeds 64 + 2·16 = 96 before an add, or 98 after it:
// below 128, so neither the add nor the compare's borrow crosses a lane.
// The decisions of still-unreachable states differ from the reference's
// but never lie on a traceback path.

// viterbiScratch holds the pooled working storage of one packed decode.
type viterbiScratch struct {
	metric    [8]uint64 // path metric lanes (current step)
	next      [8]uint64 // path metric lanes (next step)
	decisions []uint64  // one decision word per trellis step
	seq       []uint8   // depunctured coded stream (2 per data bit)

	// observe, when set (tests only), sees the metric words before
	// every step's add.
	observe func(m *[8]uint64)
}

const (
	lanes   = 0x0101010101010101 // 1 in every byte lane
	laneMSB = 0x8080808080808080 // top bit of every byte lane
	// vitUnreached is the starting metric of every state but 0.
	vitUnreached = 64
	// renormEvery is the step count between renormalizations.
	renormEvery = 16
)

// swarSwap holds, for phases 3–5, the in-word distance between butterfly
// partners and the mask of the lanes that hold the low predecessors.
var swarSwap = [3]struct {
	sh       uint
	lowLanes uint64
}{
	{32, 0x00000000FFFFFFFF},
	{16, 0x0000FFFF0000FFFF},
	{8, 0x00FF00FF00FF00FF},
}

var (
	// swarCost[r][rA<<2|rB] holds, for phase r and received pair
	// (rA, rB), the lane costs of every low-predecessor branch ([0]) and
	// every high-predecessor branch ([1]).
	swarCost [6][16][2][8]uint64
	// swarDecBit[r][ns] is the decision-word bit of next-state ns for a
	// step taken at phase r.
	swarDecBit [6][numStates]uint8
)

// rol6 rotates a 6-bit state left by r.
func rol6(x, r int) int { return (x<<r | x>>(6-r)) & (numStates - 1) }

func init() {
	for r := 0; r < 6; r++ {
		for x := 0; x < numStates; x++ {
			s := rol6(x, r) // the state at lane x
			in := s >> 5    // the input bit its next-state shifts in
			k := s & (numStates/2 - 1)
			w, sh := x>>3, uint(8*(x&7))
			for rArB := 0; rArB < 16; rArB++ {
				row := &bmLUT[rArB>>2][rArB&3]
				swarCost[r][rArB][0][w] |= uint64(row[branchPair[k][in]]) << sh
				swarCost[r][rArB][1][w] |= uint64(row[branchPair[k|numStates/2][in]]) << sh
			}
			swarDecBit[r][rol6(s, 1)] = uint8(8*(x&7) + x>>3)
		}
	}
}

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
	for w := range m {
		m[w] = vitUnreached * lanes
	}
	m[0] &^= 0xFF // state 0 sits at lane 0 in every phase

	r := 0
	for t := range decisions {
		rA, rB := seq[2*t], seq[2*t+1]
		if rA > 3 {
			rA = 3 // out-of-alphabet: every branch mismatches (see bmLUT)
		}
		if rB > 3 {
			rB = 3
		}
		if v.observe != nil {
			v.observe(m)
		}
		decisions[t] = swarStep(m, nx, r, &swarCost[r][rA<<2|rB])
		m, nx = nx, m
		if r++; r == 6 {
			r = 0
		}
		if t&(renormEvery-1) == renormEvery-1 {
			renormalize(m)
		}
	}

	best := 0
	if !terminated {
		// State s sits at lane ror6^r(s); scanning in state order keeps
		// the lowest-index state on ties.
		bestM := uint8(0xFF)
		for s := 0; s < numStates; s++ {
			x := rol6(s, (6-r)%6)
			if mv := uint8(m[x>>3] >> (8 * (x & 7))); mv < bestM {
				best, bestM = s, mv
			}
		}
	}
	state := best
	for t := n - 1; t >= 0; t-- {
		if r--; r < 0 {
			r = 5
		}
		out[t] = uint8(state & 1)
		state = state>>1 | int(decisions[t]>>swarDecBit[r][state&(numStates-1)]&1)<<5
	}
}

// swarStep runs one trellis step at phase r: all 64 add-compare-selects
// from metric words m into nx under the step's cost words, returning the
// step's decision word.
func swarStep(m, nx *[8]uint64, r int, cost *[2][8]uint64) uint64 {
	var dec uint64
	if r < 3 {
		// Partners share a byte in words w&^b and w|b: those are the low
		// and the high predecessors of both words.
		b := 4 >> r
		for w := 7; w >= 0; w-- {
			lo := m[w&^b] + cost[0][w]
			hi := m[(w|b)&7] + cost[1][w]
			keepLo := ((hi | laneMSB) - lo) & laneMSB // lo ≤ hi
			sel := keepLo - keepLo>>7 | keepLo        // 0xFF where lo ≤ hi
			nx[w] = hi ^ (lo^hi)&sel
			dec = dec<<1 | (keepLo^laneMSB)>>7
		}
		return dec
	}
	// Partners share a word, sh bits apart: each predecessor's half is
	// copied over its partner's.
	sw := &swarSwap[r-3]
	sh, mk := sw.sh&63, sw.lowLanes
	for w := 7; w >= 0; w-- {
		l, h := m[w]&mk, m[w]&^mk
		lo := (l | l<<sh) + cost[0][w]
		hi := (h | h>>sh) + cost[1][w]
		keepLo := ((hi | laneMSB) - lo) & laneMSB
		sel := keepLo - keepLo>>7 | keepLo
		nx[w] = hi ^ (lo^hi)&sel
		dec = dec<<1 | (keepLo^laneMSB)>>7
	}
	return dec
}

// renormalize subtracts the smallest lane from every lane of m.
func renormalize(m *[8]uint64) {
	mn := m[0]
	for _, w := range m[1:] {
		le := ((w | laneMSB) - mn) & laneMSB // mn ≤ w
		sel := le - le>>7 | le
		mn = w ^ (mn^w)&sel
	}
	lo := uint8(0xFF)
	for i := 0; i < 8; i++ {
		lo = min(lo, uint8(mn>>(8*i)))
	}
	for w := range m {
		m[w] -= uint64(lo) * lanes
	}
}

// trellisDecode is the int32 reference trellis: the add-compare-select
// recursion with explicit predecessor bookkeeping per step for an
// unambiguous traceback. row(t) prices step t's four coded output pairs,
// indexed by branchPair. The trellis starts in state 0; a terminated one
// ends there too, otherwise the lowest-index best end state wins. Ties keep
// the earlier-scanned (lower) predecessor.
func trellisDecode(numDataBits int, terminated bool, row func(t int) *[4]int32) []uint8 {
	const inf = int32(1) << 30
	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
	prev := make([][numStates]uint8, numDataBits) // predecessor state

	for t := 0; t < numDataBits; t++ {
		cost := row(t)
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				ns := ((s << 1) | in) & (numStates - 1)
				if bm := m + cost[branchPair[s][in]]; bm < next[ns] {
					next[ns] = bm
					prev[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}

	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if metric[s] < metric[best] {
				best = s
			}
		}
	}
	out := make([]uint8, numDataBits)
	state := best
	for t := numDataBits - 1; t >= 0; t-- {
		out[t] = uint8(state & 1)
		state = int(prev[t][state])
	}
	return out
}
