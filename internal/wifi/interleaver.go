package wifi

// The 802.11 OFDM block interleaver (§17.3.5.6): coded bits of one OFDM
// symbol are permuted twice — the first permutation spreads adjacent coded
// bits across non-adjacent subcarriers, the second alternates them between
// significant and less-significant constellation bit positions.
//
// The two-permutation index arithmetic runs once per (rate, position) at
// package init into per-rate permutation tables; the per-symbol hot path is
// then a single gather/scatter over the table, which is what the frame
// codecs use to (de)interleave whole symbols with no index math and no
// allocation.

// interleaveIndex maps input index k (0..cbps-1) to output index j for a
// symbol with cbps coded bits and bpsc bits per subcarrier. Retained as the
// closed-form reference the permutation tables are generated from (and
// checked against in the tests).
func interleaveIndex(k, cbps, bpsc int) int {
	s := bpsc / 2
	if s < 1 {
		s = 1
	}
	// First permutation.
	i := (cbps/16)*(k%16) + k/16
	// Second permutation.
	j := s*(i/s) + (i+cbps-(16*i)/cbps)%s
	return j
}

// interleavePerm holds the per-rate permutation: interleavePerm[r][k] is the
// output position of input bit k. Built once at init from interleaveIndex.
var interleavePerm [len(rateTable)][]uint16

func init() {
	for r, info := range rateTable {
		perm := make([]uint16, info.cbps)
		for k := 0; k < info.cbps; k++ {
			perm[k] = uint16(interleaveIndex(k, info.cbps, info.bpsc))
		}
		interleavePerm[r] = perm
	}
}

// interleaveInto permutes one symbol's coded bits into dst; both slices must
// hold exactly N_CBPS bits for the rate and must not alias.
func interleaveInto(dst, src []uint8, r Rate) {
	perm := interleavePerm[r]
	_ = dst[len(perm)-1]
	for k, j := range perm {
		dst[j] = src[k]
	}
}

// deinterleaveInto inverts interleaveInto, on hard bits or on LLRs. dst and
// src must not alias.
func deinterleaveInto[T uint8 | LLR](dst, src []T, r Rate) {
	perm := interleavePerm[r]
	_ = dst[len(perm)-1]
	for k, j := range perm {
		dst[k] = src[j]
	}
}
