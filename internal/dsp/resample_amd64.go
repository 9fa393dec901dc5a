package dsp

// resampleKernel selects the SSE2 loop (resample_amd64.s) for the dense
// stretches' outputs, four at a time. SSE2 is in every amd64 build, so it
// needs no CPUID test. Tests clear it to run the Go loop.
var resampleKernel = true

// resampleDots writes len(out) outputs, a multiple of 4, each the dot of
// one bank of banks (taps pairs) against the taps samples from a window
// pointer, bit-equal to dot. Output 0 reads bank p and the window at win;
// each next output reads the window wstep samples later and the bank
// pstep phases later, one more sample later when that phase passes the
// last bank.
//
//go:noescape
func resampleDots(out Samples, win *complex128, banks [][2]float64, p, taps, wstep, pstep int)
