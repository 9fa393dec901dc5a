package jammer

// wgnKernel selects the SSE2 loop (wgn_amd64.s) for fill's whole groups of
// wgnKernelLanes samples. SSE2 is in every amd64 build, so it needs no
// CPUID test. Tests clear it to run the Go loop.
var wgnKernel = true

// wgnSums fills sums with the integer rail sums of len(sums) consecutive
// groups. lanes holds the start states of the first group's samples, one
// per lane; each lane's start in the next group is its own one jump table
// (jumpGroup) later, and lanes is left holding the starts of the group
// after the last. Each sum equals the one lfsrGaussian.rail forms.
//
//go:noescape
func wgnSums(lanes *[wgnKernelLanes]uint32, jump *[4][256]uint32, sums []wgnGroup)
