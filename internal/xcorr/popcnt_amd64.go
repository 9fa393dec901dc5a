package xcorr

// popcntKernel selects the assembly template-bank loop (popcnt_amd64.s)
// for ProcessPacked's warm whole words. The build targets GOAMD64=v1 unless
// told otherwise, and there every bits.OnesCount64 compiles to a test of
// the runtime's POPCNT flag and a call fallback, which forces the hot
// loop's operands out of registers around each of its eight popcounts. The
// assembly issues POPCNT directly, so it is selected once, from CPUID.
// Tests clear it to run the Go loop.
var popcntKernel = hasPOPCNT()

// hasPOPCNT reports CPUID leaf 1's POPCNT bit.
func hasPOPCNT() bool

// popcntWords runs the template-bank loop over whole warm words: level[w]
// receives the trigger levels of the 64 samples whose sign bits are
// signI[w] and signQ[w], with carryI and carryQ the sign words before
// signI[0] and signQ[0]. len(signQ) and len(level) must be at least
// len(signI). It is bit-identical to ProcessPacked's Go loop.
//
//go:noescape
func popcntWords(signI, signQ, level []uint64, carryI, carryQ uint64, b *popcntBanks)
