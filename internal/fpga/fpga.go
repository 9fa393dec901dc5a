// Package fpga models the hardware substrate of the custom DSP core that the
// paper implements in the USRP N210's FPGA: the 100 MHz hardware clock
// domain, the relationship between clock cycles and 25 MSPS baseband
// samples, the UHD user register bus used for host control, and per-block
// resource-utilization accounting (the slice/FF/BRAM/LUT/DSP48 insets of
// Figs. 3 and 4).
//
// The simulation is cycle-accounted rather than gate-level: every sample the
// core consumes advances the clock by CyclesPerSample, and every latency in
// the system (detection, trigger-to-jam turnaround, register writes) is
// expressed in these ticks so the paper's timeline analysis (Fig. 5) can be
// reproduced structurally.
package fpga

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Hardware timing constants of the USRP N210 platform (paper §2.2).
const (
	// ClockHz is the FPGA hardware clock: 100 MHz.
	ClockHz = 100_000_000
	// SampleRateHz is the baseband complex sample rate: 25 MSPS.
	SampleRateHz = 25_000_000
	// CyclesPerSample is the number of hardware clock cycles per baseband
	// sample (100 MHz / 25 MSPS = 4).
	CyclesPerSample = ClockHz / SampleRateHz
	// ClockPeriod is one hardware clock cycle (10 ns).
	ClockPeriod = time.Second / ClockHz
	// SamplePeriod is one baseband sample period (40 ns).
	SamplePeriod = time.Second / SampleRateHz
)

// Clock is the FPGA clock domain. The zero value is a clock at cycle 0.
// The cycle count is updated atomically so host-side observers (telemetry,
// register-bus watchers) may read it while the datapath advances it.
type Clock struct {
	cycle atomic.Uint64
}

// Cycle returns the current hardware clock cycle count.
func (c *Clock) Cycle() uint64 { return c.cycle.Load() }

// Now returns the elapsed simulated time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.Cycle()) * ClockPeriod
}

// AdvanceSamples moves the clock forward by n baseband samples.
func (c *Clock) AdvanceSamples(n uint64) { c.cycle.Add(n * CyclesPerSample) }

// Reset returns the clock to cycle 0.
func (c *Clock) Reset() { c.cycle.Store(0) }

// CyclesToDuration converts a cycle count to wall time at the 100 MHz clock.
func CyclesToDuration(cycles uint64) time.Duration {
	return time.Duration(cycles) * ClockPeriod
}

// SamplesToDuration converts a baseband sample count to wall time at 25 MSPS.
func SamplesToDuration(samples uint64) time.Duration {
	return time.Duration(samples) * SamplePeriod
}

// DurationToSamples converts wall time to whole baseband samples (floor).
func DurationToSamples(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d / SamplePeriod)
}

// Resources tallies FPGA resource utilization for a synthesized block,
// mirroring the resource insets printed in the paper's block diagrams.
type Resources struct {
	Slices int
	FFs    int
	BRAMs  int
	LUTs   int
	IOBs   int
	DSP48s int
}

// Add returns the element-wise sum of two resource tallies.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		Slices: r.Slices + o.Slices,
		FFs:    r.FFs + o.FFs,
		BRAMs:  r.BRAMs + o.BRAMs,
		LUTs:   r.LUTs + o.LUTs,
		IOBs:   r.IOBs + o.IOBs,
		DSP48s: r.DSP48s + o.DSP48s,
	}
}

func (r Resources) String() string {
	return fmt.Sprintf("Slices:%d FFs:%d BRAMs:%d LUTs:%d IOBs:%d DSP_48:%d",
		r.Slices, r.FFs, r.BRAMs, r.LUTs, r.IOBs, r.DSP48s)
}

// ResourceUser is implemented by synthesized blocks that report their
// utilization.
type ResourceUser interface {
	Resources() Resources
}
