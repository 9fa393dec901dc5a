//go:build !amd64

package fixed

// signKernel is false off amd64: SignBits' Go loop is the only one.
var signKernel = false

func signWords(src []complex128, signI, signQ []uint64) {
	panic("fixed: no sign-bit kernel on this architecture")
}
