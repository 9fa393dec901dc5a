//go:build !amd64

package jammer

// wgnKernel is false off amd64: fill's Go loop is the only one.
var wgnKernel = false

func wgnSums(lanes *[wgnKernelLanes]uint32, jump *[4][256]uint32, sums []wgnGroup) {
	panic("jammer: no WGN kernel on this architecture")
}
