package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is shared. On the 2-vCPU Xeon VM it was
// written on, the same fixed loop ran up to twice as slow for tens of
// seconds at a time while other tenants loaded the memory system and the
// cores' sibling threads. Wall-clock throughput of unchanged code had a
// quartile spread of 5–30% over ten 20–25 s runs, and repetition within a
// run does not average that out. So every item is bracketed by a
// calibration loop, a fixed computation of the benchmark's own that uses
// the same resources as the workloads, and item times are counted in
// calibration loops: an item that took as long as 300 loops counts as 300
// calibrated milliseconds, whatever the loop's wall time then was. A change
// to the program moves item times and not the loop, so it moves calibrated
// times by the same factor; a slower host moves both.
//
// The loop's three parts take about 0.4, 0.2 and 0.4 ms on a quiet core of
// that VM, about 1 ms in all, so calibrated seconds read close to seconds
// there. Of the blends tried, that one tracked every workload best; each
// part alone left spreads of up to 12%.

// calLoopMS is what one calibration loop counts for.
const calLoopMS = 1.0

// calMem is larger than a core's private caches, so reading it goes
// through the shared cache and memory as the workloads' sample buffers do.
var calMem = make([]uint64, 4<<20) // 32 MiB

// calBlock is a short complex block that stays in cache, like the samples
// a DSP kernel filters.
var calBlock = func() []complex128 {
	b := make([]complex128, 2048)
	for i := range b {
		b[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	return b
}()

// calLoop is one calibration loop: a dependent integer chain, a complex FIR
// over calBlock, and a read of one word per cache line of calMem.
func calLoop() uint64 {
	x := uint64(1)
	for i := 0; i < 190_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	var acc complex128
	taps := calBlock[:16]
	for rep := 0; rep < 6; rep++ {
		for i := len(taps); i < len(calBlock); i++ {
			var s complex128
			for j, t := range taps {
				s += calBlock[i-j] * t
			}
			acc += s
		}
	}
	x += uint64(real(acc))
	for i := 0; i < len(calMem); i += 8 {
		x += calMem[i]
	}
	return x
}

var calSink uint64

// calibrate runs the calibration loop three times on the calling goroutine
// and returns the median loop time in milliseconds. Running it on every P at
// once tracked the host worse: the copies slowed each other down.
func calibrate() float64 {
	var rounds [3]float64
	for i := range rounds {
		t0 := time.Now()
		calSink += calLoop()
		rounds[i] = ms(time.Since(t0))
	}
	slices.Sort(rounds[:])
	return rounds[1]
}

// calScale converts wall time to calibrated time over an interval bracketed
// by calibrations that took a and b milliseconds.
func calScale(a, b float64) float64 {
	return calLoopMS / ((a + b) / 2)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
