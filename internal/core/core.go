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

	// Engagement close: once the jammer is idle again, let the engagement
	// linger for the detector holdoff and then release it.
	if c.curEng != 0 && c.jam.Phase() == jammer.PhaseIdle {
		c.engLinger--
		if c.engLinger == 0 {
			c.event(telemetry.EvHoldoffRelease, c.clock.Cycle(), 0, c.curEng)
			c.curEng = 0
		}
	}
	return tx
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
// The pipeline is fused and structure-of-arrays: one sweep quantizes the
// input into separate int16 I/Q planes and packs the sign bits 64 per word
// (fixed.QuantizeFused); the energy differentiator and the packed
// correlator then turn those planes into per-sample trigger-level bitmaps. The trigger/jammer state machine
// runs batched over the bitmaps: spans with no detector level anywhere —
// the overwhelming majority of airtime — are handled in bulk (edge-detector
// holdoffs and trigger windows burn down arithmetically, idle replay
// capture and jam-burst fill run as tight loops, transmit silence is a
// memclr), and the datapath only drops to cycle-accurate scalar stepping
// for samples inside detection and engagement windows.
//
// With no recorder attached the hardware clock is advanced once per block
// (nothing can observe mid-block cycle stamps when no event is journaled).
// With a recorder attached the clock advances per quiet span and per scalar
// sample, so every journaled event keeps the exact cycle stamp the
// per-sample path would give it; while an engagement is open the whole path
// stays scalar so holdoff-release timing is preserved.
func (c *Core) ProcessBlock(rx []complex128, tx []complex128) {
	n := len(rx)
	if n == 0 {
		return
	}
	tx = tx[:n]
	c.counters.Samples.Add(uint64(n))
	off := c.rec == nil
	if off {
		c.clock.AdvanceSamples(uint64(n))
	}

	c.scratch.grow(n)
	sc := &c.scratch
	fixed.QuantizeFused(rx, sc.iPlane, sc.qPlane, sc.signI, sc.signQ)
	c.en.ProcessBits(sc.iPlane, sc.qPlane, sc.lvlH, sc.lvlL)
	c.xc.ProcessPacked(sc.signI, sc.signQ, n, sc.lvlX)
	for w, x := range sc.lvlX {
		sc.lvlAny[w] = x | sc.lvlH[w] | sc.lvlL[w]
	}

	var jamSamples uint64
	for i := 0; i < n; {
		if c.bulkEligible() {
			if j := nextLevelBit(sc.lvlAny, i, n); j > i {
				span := uint64(j - i)
				if !off {
					c.clock.AdvanceSamples(span)
				}
				c.edgeX.AdvanceQuiet(span)
				c.edgeH.AdvanceQuiet(span)
				c.edgeL.AdvanceQuiet(span)
				if c.fusion != FusionAny {
					c.sm.AdvanceQuiet(span)
				}
				jamSamples += c.jam.ProcessQuietSpan(sc.iPlane[i:j], sc.qPlane[i:j], tx[i:j])
				i = j
				continue
			}
		}
		if !off {
			c.clock.AdvanceSamples(1)
		}
		w, b := i>>6, uint(i&63)
		out := c.stepLevels(
			fixed.IQ{I: sc.iPlane[i], Q: sc.qPlane[i]},
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

// bulkEligible reports whether the datapath may batch a detector-quiet span
// right now. With no recorder attached every quiet span batches: the
// batched state updates are bit-identical and no observer exists for
// mid-span timing. With a recorder attached, batching is only safe while
// nothing that journals cycle-stamped events can fire mid-span: the jammer
// must be idle (phase transitions carry stamps), no engagement may be open
// (the holdoff-release countdown is per-sample), and no trigger window may
// be armed (its expiry journals an abandon transition).
func (c *Core) bulkEligible() bool {
	if c.rec == nil {
		return true
	}
	return c.curEng == 0 &&
		c.jam.Phase() == jammer.PhaseIdle &&
		(c.fusion == FusionAny || !c.sm.Armed())
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
