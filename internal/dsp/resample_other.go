//go:build !amd64

package dsp

// resampleKernel is false off amd64: the resampler's Go loop is the only
// one.
var resampleKernel = false

func resampleDots(out Samples, win *complex128, banks [][2]float64, p, taps, wstep, pstep int) {
	panic("dsp: no resampler kernel on this architecture")
}
