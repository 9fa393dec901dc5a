// Package core implements the custom DSP core of Fig. 2 — the paper's
// primary contribution. It nests the cross-correlator, the energy
// differentiator, the three-stage trigger state machine, and the jamming
// transmit controller into one sample-clocked datapath, exposes the whole
// configuration through the UHD user register bus, and counts detection
// events for host feedback ("Synchro Flags" in Fig. 1).
//
// One call to ProcessSample corresponds to one 25 MSPS baseband sample
// entering the DDC chain: the sample is quantized to the 16-bit I/Q the
// FPGA sees, both detectors run in parallel, their (edge-detected) outputs
// drive the trigger state machine, and the transmit controller produces the
// jamming output for the same tick.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/fpga"
	"repro/internal/jammer"
	"repro/internal/telemetry"
	"repro/internal/trigger"
	"repro/internal/xcorr"
)

// FusionMode selects how detector events combine into a jam trigger.
type FusionMode uint8

// Fusion modes of the trigger builder.
const (
	// FusionSequence requires the configured events in order within the
	// window (the hardware three-stage state machine).
	FusionSequence FusionMode = iota
	// FusionAny fires on any one of the configured events (OR), the
	// combination used for the WiMAX experiment of §5.
	FusionAny
)

// Stats carries the host-feedback counters of the core. It is the
// telemetry counter block's snapshot type — the same memory the exposition
// endpoint reads — so host feedback and telemetry can never drift apart.
type Stats = telemetry.CounterSnapshot

// Core is the complete custom DSP core. Construct with New. Core is not
// safe for concurrent use from multiple goroutines; the register bus it
// exposes is.
type Core struct {
	bus *fpga.RegisterBus

	xc  *xcorr.Correlator
	en  *energy.Differentiator
	sm  *trigger.StateMachine
	jam *jammer.Controller

	edgeX *trigger.EdgeDetector
	edgeH *trigger.EdgeDetector
	edgeL *trigger.EdgeDetector

	clock fpga.Clock

	fusion FusionMode
	events []trigger.Event

	counters *telemetry.Counters
	rec      *telemetry.Live // nil while no recorder is attached

	// Engagement tracking (only maintained while a recorder is attached):
	// every detector edge that arrives while no engagement is open
	// allocates a fresh engagement ID, and all subsequent sample-clocked
	// events — detector edges, trigger FSM transitions, jammer
	// phases — carry that ID until the engagement closes. An engagement
	// closes EdgeHoldoff samples after the datapath goes quiescent (jammer
	// idle, no new edges), at which point EvHoldoffRelease is journaled:
	// the detectors have re-armed and the next packet starts a new
	// engagement.
	engSeq    uint32
	curEng    uint32
	engLinger uint64

	scratch blockScratch
}

// EdgeHoldoff is the default detector re-trigger holdoff in samples,
// preventing one preamble from registering as a burst of detections.
const EdgeHoldoff = 16

// New returns a core with detectors idle (no coefficients, no thresholds),
// a single-stage energy-high trigger, and the jammer in its defaults.
func New() *Core {
	c := &Core{
		bus:      fpga.NewRegisterBus(),
		xc:       xcorr.New(),
		en:       energy.New(),
		sm:       trigger.New(trigger.EventEnergyHigh),
		jam:      jammer.New(),
		edgeX:    trigger.NewEdgeDetector(EdgeHoldoff),
		edgeH:    trigger.NewEdgeDetector(EdgeHoldoff),
		edgeL:    trigger.NewEdgeDetector(EdgeHoldoff),
		fusion:   FusionSequence,
		events:   []trigger.Event{trigger.EventEnergyHigh},
		counters: &telemetry.Counters{},
	}
	c.installRegisterDecode()
	c.installInstrumentation()
	return c
}

// installInstrumentation routes block-level transitions into the recorder.
// The hooks live for the core's lifetime and read c.rec on every firing, so
// SetRecorder swaps take effect immediately.
func (c *Core) installInstrumentation() {
	c.bus.WatchAll(func(addr uint8, value uint32) {
		c.counters.RegWrites.Add(1)
		// Register writes may arrive from a host goroutine while the
		// datapath runs, so they never read the engagement state.
		c.event(telemetry.EvRegWrite, c.clock.Cycle(),
			uint64(addr)<<32|uint64(value), 0)
	})
	c.sm.OnTransition(func(from, to int, fired bool) {
		if fired {
			return // the fire event is emitted by ProcessSample
		}
		switch {
		case from == 0 && to > 0:
			c.event(telemetry.EvTriggerArm, c.clock.Cycle(), uint64(to), c.curEng)
		case to > from:
			c.event(telemetry.EvTriggerStage, c.clock.Cycle(), uint64(to), c.curEng)
		case to < from:
			c.event(telemetry.EvTriggerAbandon, c.clock.Cycle(), uint64(from), c.curEng)
		}
	})
	c.jam.OnPhase(func(from, to jammer.Phase) {
		switch {
		case to == jammer.PhaseDelay:
			c.event(telemetry.EvJamDelay, c.clock.Cycle(), 0, c.curEng)
		case to == jammer.PhaseInit:
			c.event(telemetry.EvJamInit, c.clock.Cycle(), 0, c.curEng)
		case to == jammer.PhaseJamming:
			c.event(telemetry.EvJamRFOn, c.clock.Cycle(), 0, c.curEng)
		case to == jammer.PhaseIdle && from == jammer.PhaseJamming:
			c.event(telemetry.EvJamRFOff, c.clock.Cycle(), 0, c.curEng)
			// The burst is over: restart the engagement linger so the
			// holdoff-release fires once the detectors have re-armed.
			c.engLinger = EdgeHoldoff
		}
	})
}

// SetRecorder attaches a telemetry recorder (nil detaches it) and binds it
// to the core's counter block, so its exposition reads the same counters
// Stats snapshots. Swap recorders only while the sample loop is quiescent.
func (c *Core) SetRecorder(r *telemetry.Live) {
	if r != nil {
		r.BindCounters(c.counters)
	} else {
		c.curEng, c.engLinger = 0, 0
	}
	c.rec = r
}

// event journals one event when a recorder is attached.
func (c *Core) event(kind telemetry.EventKind, cycle, arg uint64, eng uint32) {
	if c.rec != nil {
		c.rec.Event(kind, cycle, arg, eng)
	}
}

// MarkFrameStart journals a frame-start marker at the given hardware clock
// cycle. Measurement harnesses call it when they know where an injected
// frame begins, which is what anchors the end-to-end reaction-latency
// histogram.
func (c *Core) MarkFrameStart(cycle uint64) {
	c.event(telemetry.EvFrameStart, cycle, 0, 0)
}

// PollFeedback reads the host-feedback counters the way the host
// application does ("Synchro Flags" in Fig. 1), counting the poll itself.
func (c *Core) PollFeedback() Stats {
	c.counters.HostPolls.Add(1)
	c.event(telemetry.EvHostPoll, c.clock.Cycle(), 0, 0)
	return c.Stats()
}

// Bus returns the user register bus for host-side programming.
func (c *Core) Bus() *fpga.RegisterBus { return c.bus }

// XCorr exposes the cross-correlator block (for direct configuration in
// tests and characterization runs).
func (c *Core) XCorr() *xcorr.Correlator { return c.xc }

// Energy exposes the energy differentiator block.
func (c *Core) Energy() *energy.Differentiator { return c.en }

// Jammer exposes the transmit controller block.
func (c *Core) Jammer() *jammer.Controller { return c.jam }

// SetFusion configures the trigger combination directly (bypassing the
// register bus), mirroring what RegTriggerConfig decodes to.
func (c *Core) SetFusion(mode FusionMode, events []trigger.Event, window uint64) error {
	if len(events) == 0 || len(events) > trigger.MaxStages {
		return fmt.Errorf("core: need 1..%d trigger events", trigger.MaxStages)
	}
	if mode == FusionSequence {
		if err := c.sm.Configure(events, window); err != nil {
			return err
		}
	}
	c.fusion = mode
	c.events = append(c.events[:0], events...)
	return nil
}

// Stats returns a snapshot of the host-feedback counters.
func (c *Core) Stats() Stats { return c.counters.Snapshot() }

// ResetStats clears the feedback counters only.
func (c *Core) ResetStats() { c.counters.Reset() }

// ResetDatapath clears all sample state (detector histories, trigger FSM,
// jammer state, counters) while keeping the register configuration.
func (c *Core) ResetDatapath() {
	c.xc.Reset()
	c.en.Reset()
	c.sm.ResetState()
	c.jam.Reset()
	c.edgeX.Reset()
	c.edgeH.Reset()
	c.edgeL.Reset()
	c.counters.Reset()
	c.clock.Reset()
	c.curEng, c.engLinger = 0, 0
}

// Clock returns the core's hardware clock (advances 4 cycles per sample).
func (c *Core) Clock() *fpga.Clock { return &c.clock }

// ProcessSample consumes one receive-path baseband sample and returns the
// transmit-path output for the same sample tick.
func (c *Core) ProcessSample(rx complex128) (tx complex128) {
	c.clock.AdvanceSamples(1)
	c.counters.Samples.Add(1)
	q := fixed.Quantize(rx)
	enHigh, enLow := c.en.Process(q)
	tx = c.step(q, enHigh, enLow)
	if tx != 0 {
		c.counters.JamSamples.Add(1)
	}
	return tx
}

// step runs the post-energy stages of one sample tick: cross-correlation,
// edge detection, trigger fusion and the jamming transmit controller. The
// caller owns clock advancement and the Samples/JamSamples counters.
func (c *Core) step(q fixed.IQ, enHigh, enLow bool) complex128 {
	_, xcLevel := c.xc.Process(q)
	return c.stepLevels(q, xcLevel, enHigh, enLow)
}

// stepLevels runs one sample tick from precomputed detector comparator
// levels: edge detection, trigger fusion, the jamming controller and
// engagement bookkeeping. The block datapath calls it directly for samples
// inside detection/engagement windows, where the correlator and energy
// levels already came out of the block kernels.
func (c *Core) stepLevels(q fixed.IQ, xcLevel, enHigh, enLow bool) complex128 {
	in := trigger.Inputs{
		XCorr:      c.edgeX.Process(xcLevel),
		EnergyHigh: c.edgeH.Process(enHigh),
		EnergyLow:  c.edgeL.Process(enLow),
	}
	if c.rec != nil && (in.XCorr || in.EnergyHigh || in.EnergyLow) {
		if c.curEng == 0 {
			c.engSeq++
			c.curEng = c.engSeq
		}
		c.engLinger = EdgeHoldoff
	}
	if in.XCorr {
		c.counters.XCorrDetections.Add(1)
		c.event(telemetry.EvXCorrEdge, c.clock.Cycle(), 0, c.curEng)
	}
	if in.EnergyHigh {
		c.counters.EnergyHighDetections.Add(1)
		c.event(telemetry.EvEnergyHighEdge, c.clock.Cycle(), 0, c.curEng)
	}
	if in.EnergyLow {
		c.counters.EnergyLowDetections.Add(1)
		c.event(telemetry.EvEnergyLowEdge, c.clock.Cycle(), 0, c.curEng)
	}

	var fire bool
	switch c.fusion {
	case FusionAny:
		for _, e := range c.events {
			switch e {
			case trigger.EventXCorr:
				fire = fire || in.XCorr
			case trigger.EventEnergyHigh:
				fire = fire || in.EnergyHigh
			case trigger.EventEnergyLow:
				fire = fire || in.EnergyLow
			}
		}
	default:
		fire = c.sm.Process(in)
	}
	if fire {
		c.counters.JamTriggers.Add(1)
		c.event(telemetry.EvTriggerFire, c.clock.Cycle(), 0, c.curEng)
	}

	tx := c.jam.Process(q, fire)

	c.linger(1)
	return tx
}

// linger counts an open engagement down by n ticks while the jammer is
// idle, and closes it once the detector holdoff has passed: the engagement
// lingers for the holdoff after the datapath goes quiescent.
func (c *Core) linger(n uint64) {
	if c.curEng != 0 && c.jam.Phase() == jammer.PhaseIdle {
		c.engLinger -= n
		if c.engLinger == 0 {
			c.event(telemetry.EvHoldoffRelease, c.clock.Cycle(), 0, c.curEng)
			c.curEng = 0
		}
	}
}

// blockScratch holds the reusable block-mode staging buffers: the SoA I/Q
// planes, the packed sign-bit words and the detector level bitmaps.
type blockScratch struct {
	iPlane []int16
	qPlane []int16
	signI  []uint64
	signQ  []uint64
	lvlX   []uint64 // xcorr trigger-level bitmap
	lvlH   []uint64 // energy-high level bitmap
	lvlL   []uint64 // energy-low level bitmap
	lvlAny []uint64 // OR of the three, for the quiet-span scan
}

func (s *blockScratch) grow(n int) {
	w := (n + 63) / 64
	if cap(s.iPlane) < n {
		s.iPlane = make([]int16, n)
		s.qPlane = make([]int16, n)
	}
	if cap(s.signI) < w {
		s.signI = make([]uint64, w)
		s.signQ = make([]uint64, w)
		s.lvlX = make([]uint64, w)
		s.lvlH = make([]uint64, w)
		s.lvlL = make([]uint64, w)
		s.lvlAny = make([]uint64, w)
	}
	s.iPlane = s.iPlane[:n]
	s.qPlane = s.qPlane[:n]
	s.signI = s.signI[:w]
	s.signQ = s.signQ[:w]
	s.lvlX = s.lvlX[:w]
	s.lvlH = s.lvlH[:w]
	s.lvlL = s.lvlL[:w]
	s.lvlAny = s.lvlAny[:w]
}

// ProcessBlock is the block-mode fast path: it runs a whole receive slice
// through the datapath, writing the transmit output into tx (which must be
// at least len(rx) long). The results — transmit samples, counters, trigger
// decisions and detector state — are bit-identical to calling ProcessSample
// once per sample.
//
// The pipeline is structure-of-arrays and computes only what its consumers
// read. The packed correlator reads every sample's sign bits, 64 per word;
// the energy differentiator, while it can fire, reads every sample's int16
// I/Q planes. So while the differentiator can fire one sweep quantizes the
// input into both (fixed.QuantizeFused), and otherwise only the sign bits
// are packed (fixed.SignBits) and the differentiator quantizes the tail it
// keeps (energy.SkipBlock). Each sample the datapath steps one at a time is
// quantized on its own (fixed.Quantize). The replay capture copies raw
// receive samples and the replay waveform quantizes what it plays. The two
// detectors then turn their inputs into per-sample trigger-level bitmaps.
//
// A detector runs only while it can fire, judged once per block at its
// start, so a register write takes effect at the next block: the energy
// differentiator while either edge is enabled, the correlator while its
// threshold is within the bound on the metric its banks can produce (a host
// that arms one detector leaves the other unable to fire). A detector that
// cannot fire has an all-zero level bitmap, so its kernel is skipped and
// only the history a later arming reads is kept: the correlator takes the
// block's last 64 sign bits from the packed words and its warm-up fill in
// O(1), the energy differentiator quantizes the block's last
// WindowLength+CompareDelay samples and runs its ring-and-sum update,
// without comparisons, over them.
// Either way its first levels after arming equal an always-on detector's,
// and ProcessSample, which always runs both, is the reference.
//
// The trigger/jammer state machine
// runs batched over the bitmaps: spans with no detector level anywhere —
// the overwhelming majority of airtime — are handled in bulk (edge-detector
// holdoffs and trigger windows burn down arithmetically, idle replay
// capture and jam-burst fill run as tight loops, transmit silence is a
// memclr), and the datapath only steps one sample at a time where a
// detector level is set. Each span also ends where an event can fire
// (quietLimit), so the event lands on the span's last sample; the clock is
// advanced before the span runs, and the event gets the cycle stamp the
// per-sample path gives it.
func (c *Core) ProcessBlock(rx []complex128, tx []complex128) {
	n := len(rx)
	if n == 0 {
		return
	}
	tx = tx[:n]
	c.counters.Samples.Add(uint64(n))

	c.scratch.grow(n)
	sc := &c.scratch
	if c.en.CanFire() {
		fixed.QuantizeFused(rx, sc.iPlane, sc.qPlane, sc.signI, sc.signQ)
		c.en.ProcessBits(sc.iPlane, sc.qPlane, sc.lvlH, sc.lvlL)
	} else {
		fixed.SignBits(rx, sc.signI, sc.signQ)
		c.en.SkipBlock(rx)
		clear(sc.lvlH)
		clear(sc.lvlL)
	}
	if c.xc.CanFire() {
		c.xc.ProcessPacked(sc.signI, sc.signQ, n, sc.lvlX)
	} else {
		c.xc.SkipPacked(sc.signI, sc.signQ, n)
		clear(sc.lvlX)
	}
	for w, x := range sc.lvlX {
		sc.lvlAny[w] = x | sc.lvlH[w] | sc.lvlL[w]
	}

	var jamSamples uint64
	for i := 0; i < n; {
		if j := nextLevelBit(sc.lvlAny, i, n); j > i {
			span := min(uint64(j-i), c.quietLimit())
			j = i + int(span)
			c.clock.AdvanceSamples(span)
			c.edgeX.AdvanceQuiet(span)
			c.edgeH.AdvanceQuiet(span)
			c.edgeL.AdvanceQuiet(span)
			if c.fusion != FusionAny {
				c.sm.AdvanceQuiet(span)
			}
			idle := c.jam.Phase() == jammer.PhaseIdle
			jamSamples += c.jam.ProcessQuietSpan(rx[i:j], tx[i:j])
			if !idle {
				// The jammer can only have gone idle on the span's last
				// sample, the one tick of it the linger counts.
				span = 1
			}
			c.linger(span)
			i = j
			continue
		}
		c.clock.AdvanceSamples(1)
		w, b := i>>6, uint(i&63)
		out := c.stepLevels(fixed.Quantize(rx[i]),
			sc.lvlX[w]>>b&1 != 0,
			sc.lvlH[w]>>b&1 != 0,
			sc.lvlL[w]>>b&1 != 0)
		if out != 0 {
			jamSamples++
		}
		tx[i] = out
		i++
	}
	if jamSamples > 0 {
		c.counters.JamSamples.Add(jamSamples)
	}
}

// quietLimit returns how many detector-quiet samples the next batched span
// may cover so that every event it journals falls on its last sample: the
// jammer's next phase event, the sequence trigger's window expiry and an
// open engagement's holdoff release.
func (c *Core) quietLimit() uint64 {
	lim := c.jam.QuietLimit()
	if c.fusion != FusionAny {
		lim = min(lim, c.sm.QuietLimit())
	}
	if c.curEng != 0 && c.jam.Phase() == jammer.PhaseIdle {
		lim = min(lim, c.engLinger)
	}
	return lim
}

// nextLevelBit returns the index of the first sample at or after `from`
// whose bit is set in the level bitmap, or n when the rest of the block is
// quiet. Bits above n-1 in the last word are zero by construction.
func nextLevelBit(words []uint64, from, n int) int {
	w := from >> 6
	if m := words[w] >> uint(from&63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(words); w++ {
		if m := words[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return n
}

// Resources returns the total FPGA utilization of the synthesized core.
func (c *Core) Resources() fpga.Resources {
	return c.xc.Resources().Add(c.en.Resources()).Add(c.jam.Resources())
}

// Timelines reports the reactive-jamming latency budget of Fig. 5 / §3.1
// for the current jammer settings.
type Timelines struct {
	// TenDet is the worst-case energy detection latency (32 samples).
	TenDet time.Duration
	// TxcorrDet is the cross-correlation detection latency (64 samples).
	TxcorrDet time.Duration
	// TInit is the trigger-to-RF turnaround (8 clock cycles).
	TInit time.Duration
	// TJam is the configured jamming burst duration.
	TJam time.Duration
	// TRespEnergy and TRespXCorr are the total system response times for
	// each detection path (detection + init).
	TRespEnergy time.Duration
	TRespXCorr  time.Duration
}

// Timelines computes the latency budget from the block constants and the
// live jammer configuration.
func (c *Core) Timelines() Timelines {
	ten := fpga.CyclesToDuration(energy.DetectionCycles)
	txc := fpga.CyclesToDuration(xcorr.DetectionCycles)
	tin := fpga.CyclesToDuration(jammer.InitCycles)
	return Timelines{
		TenDet:      ten,
		TxcorrDet:   txc,
		TInit:       tin,
		TJam:        fpga.SamplesToDuration(c.jam.UptimeSamples()),
		TRespEnergy: ten + tin,
		TRespXCorr:  txc + tin,
	}
}
