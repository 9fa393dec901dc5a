package fixed

// signKernel selects the SSE2 loop (sign_amd64.s) for SignBits' whole
// 64-sample words. SSE2 is in every amd64 build, so it needs no CPUID
// test. Tests clear it to run the Go loop.
var signKernel = true

// signWords packs the sign words of len(src)/64 whole words, bit-equal to
// SignBits' Go loop. len(signI) and len(signQ) must be at least
// len(src)/64.
//
//go:noescape
func signWords(src []complex128, signI, signQ []uint64)
