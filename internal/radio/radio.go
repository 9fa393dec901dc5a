// Package radio models the USRP N210 software-defined radio with its SBX
// front end (§2.1): a full-duplex transceiver whose receive path carries
// down-converted, decimated baseband at the fixed 25 MSPS rate into the
// custom DSP core, and whose transmit path carries the core's jamming
// output through the DUC back to RF.
//
// Both chains are initialized together at start-up, as the paper does to
// eliminate RX/TX switching time. Front-end tuning covers the SBX's
// 400 MHz – 4.4 GHz range with up to 40 MHz of instantaneous bandwidth.
package radio

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fpga"
)

// SBX front-end limits.
const (
	// MinFreqHz and MaxFreqHz bound the SBX tuning range.
	MinFreqHz = 400e6
	MaxFreqHz = 4.4e9
	// MaxBandwidthHz is the SBX instantaneous bandwidth.
	MaxBandwidthHz = 40e6
)

// N210 is the radio: front-end state plus the custom DSP core nested in its
// DDC chain. Construct with New.
type N210 struct {
	core *core.Core

	ddc      *dsp.Resampler // source-rate → 25 MSPS, when needed
	sourceHz int
	tx       dsp.Samples // transmit output, reused by every Process call

	started bool
}

// New returns a radio with a fresh DSP core.
func New() *N210 {
	return &N210{core: core.New(), sourceHz: fpga.SampleRateHz}
}

// Core exposes the custom DSP core (and through it the register bus).
func (r *N210) Core() *core.Core { return r.core }

// Tune checks an RF center frequency against the SBX range. The model
// runs at complex baseband, so the frequency itself changes nothing
// downstream.
func (r *N210) Tune(hz float64) error {
	if hz < MinFreqHz || hz > MaxFreqHz {
		return fmt.Errorf("radio: %.0f Hz outside SBX range [%.0f, %.0f]",
			hz, MinFreqHz, MaxFreqHz)
	}
	return nil
}

// Start initializes both chains simultaneously (§2.1: "we initialize both
// TX and RX chains simultaneously in the host application at start-up").
// It returns the DDC's filter state and the core's sample state to
// power-on and keeps every register, so a started radio processes as a new
// one programmed the same way would.
func (r *N210) Start() {
	r.started = true
	if r.ddc != nil {
		r.ddc.Reset()
	}
	r.core.ResetDatapath()
}

// SetSourceRate installs a DDC resampler for input delivered at a rate
// other than 25 MSPS (see NewDDC). Pass fpga.SampleRateHz to disable
// resampling.
func (r *N210) SetSourceRate(sourceHz int) error {
	ddc, err := NewDDC(sourceHz)
	if err != nil {
		return err
	}
	r.sourceHz, r.ddc = sourceHz, ddc
	return nil
}

// NewDDC returns the DDC resampler that carries input delivered at sourceHz
// to the core's 25 MSPS by the rational ratio 25 MSPS / sourceHz; nil when
// sourceHz is 25 MSPS.
func NewDDC(sourceHz int) (*dsp.Resampler, error) {
	if sourceHz <= 0 {
		return nil, fmt.Errorf("radio: invalid source rate %d", sourceHz)
	}
	if sourceHz == fpga.SampleRateHz {
		return nil, nil
	}
	return dsp.NewResampler(fpga.SampleRateHz, sourceHz, 8), nil
}

// GroupDelayCycles returns the receive front end's group delay in hardware
// clock cycles, rounded up: the DDC resampler's anti-aliasing filter delays
// every sample by this much before the detectors see it, so any end-to-end
// latency budget anchored at the antenna must allow for it on top of the
// detection + trigger timeline. Zero when no resampling is configured.
func (r *N210) GroupDelayCycles() uint64 {
	if r.ddc == nil {
		return 0
	}
	return uint64(math.Ceil(r.ddc.GroupDelayOutputSamples() * fpga.CyclesPerSample))
}

// MarkFrame journals a telemetry frame-start marker for a frame that will
// begin offsetSourceSamples into the *next* buffer handed to Process. The
// offset is converted from source-rate samples to core samples through the
// DDC ratio, so reaction-latency histograms measure from the frame boundary
// the core actually sees.
func (r *N210) MarkFrame(offsetSourceSamples int) {
	if offsetSourceSamples < 0 {
		offsetSourceSamples = 0
	}
	coreSamples := uint64(offsetSourceSamples) * fpga.SampleRateHz / uint64(r.sourceHz)
	cycle := r.core.Clock().Cycle() + coreSamples*fpga.CyclesPerSample
	r.core.MarkFrameStart(cycle)
}

// Process streams a block of received baseband through the DDC (if any) and
// the custom DSP core in block mode, returning the transmit-path output at
// 25 MSPS.
//
// The returned slice is the radio's own transmit buffer: it stays valid
// only until the next call to Process, which overwrites every sample of it.
// Callers that keep transmit output across calls must copy it.
func (r *N210) Process(rx dsp.Samples) (dsp.Samples, error) {
	if !r.started {
		return nil, fmt.Errorf("radio: chains not started")
	}
	in := rx
	if r.ddc != nil {
		in = r.ddc.Process(rx)
	}
	if cap(r.tx) < len(in) {
		// Doubling bounds the reallocations when block sizes creep up, as
		// when a victim's rate fallback lengthens every frame.
		r.tx = make(dsp.Samples, max(len(in), 2*cap(r.tx)))
	}
	out := r.tx[:len(in)]
	r.core.ProcessBlock(in, out)
	return out, nil
}
