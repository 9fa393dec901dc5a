//go:build !amd64

package xcorr

// popcntKernel is false off amd64: ProcessPacked's Go loop is the only one.
var popcntKernel = false

func popcntWords(signI, signQ, level []uint64, carryI, carryQ uint64, b *popcntBanks) {
	panic("xcorr: no popcount kernel on this architecture")
}
