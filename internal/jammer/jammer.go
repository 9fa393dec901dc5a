// Package jammer implements the transmit controller of the custom DSP core:
// once the trigger state machine fires, the controller takes complete
// control of the transmit data path and produces a jamming waveform
// (paper §2.2, §2.4).
//
// Three user-selectable waveform presets are provided, matching the paper:
//
//  1. a pseudorandom 25 MHz-wide white Gaussian noise signal,
//  2. a repetitive replay of up to the 512 most recently received samples,
//  3. the waveform currently being streamed to the transmit buffer by the
//     host application.
//
// The jamming duration (uptime) ranges from 1 sample (40 ns) to 2³² samples
// (≈172 s; the paper quotes "about 40 s" for practical settings), and an
// optional delay between trigger and active jamming lets the user target
// specific locations within a packet ("surgical" jamming). The turnaround
// from trigger to RF output is modeled as the paper measures it: the
// response initiates within 1 clock cycle and needs ~7 more cycles to
// populate the digital up-conversion chain, so the first jamming sample
// reaches RF 8 hardware cycles (80 ns, 2 baseband samples) after the
// trigger.
package jammer

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/fpga"
)

// Waveform selects the jamming waveform preset.
type Waveform uint8

// The three waveform presets of §2.4.
const (
	// WaveformWGN transmits pseudorandom wideband Gaussian noise.
	WaveformWGN Waveform = iota
	// WaveformReplay repetitively replays the most recent received samples.
	WaveformReplay
	// WaveformHostStream transmits whatever the host is streaming into the
	// TX buffer.
	WaveformHostStream
)

func (w Waveform) String() string {
	switch w {
	case WaveformWGN:
		return "wgn"
	case WaveformReplay:
		return "replay"
	case WaveformHostStream:
		return "host-stream"
	default:
		return fmt.Sprintf("waveform(%d)", uint8(w))
	}
}

// Hardware limits (paper §2.4).
const (
	// ReplayDepth is the capacity of the replay capture buffer.
	ReplayDepth = 512
	// MinUptimeSamples is the shortest jamming burst: one sample (40 ns).
	MinUptimeSamples = 1
	// InitCycles is the trigger-to-RF turnaround: 1 cycle to initiate plus
	// ~7 cycles to fill the DUC (Tinit ≈ 80 ns).
	InitCycles = 8
	// InitSamples is InitCycles expressed in baseband samples.
	InitSamples = InitCycles / fpga.CyclesPerSample
)

// Phase is the transmit controller's lifecycle state. Exported so the
// telemetry layer can journal burst phase transitions.
type Phase uint8

// The controller phases, in lifecycle order.
const (
	// PhaseIdle: no burst in progress; the replay capture runs.
	PhaseIdle Phase = iota
	// PhaseDelay: trigger accepted, surgical delay counting down.
	PhaseDelay
	// PhaseInit: filling the DUC pipeline (InitCycles to RF).
	PhaseInit
	// PhaseJamming: jamming waveform on the air.
	PhaseJamming
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseDelay:
		return "delay"
	case PhaseInit:
		return "init"
	case PhaseJamming:
		return "jamming"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// PhaseFunc observes controller phase transitions. It must not allocate;
// it runs in the sample loop.
type PhaseFunc func(from, to Phase)

// Controller is the streaming transmit controller. Feed it one call per
// baseband sample tick; it returns the TX sample for that tick. Not safe for
// concurrent use.
type Controller struct {
	waveform Waveform
	uptime   uint64 // samples of active jamming per trigger
	delay    uint64 // samples between trigger and TX init
	gain     float64

	st        Phase
	onPhase   PhaseFunc
	rfPending bool // RF-on notification owed with the next emitted sample
	remaining uint64

	wgn lfsrGaussian

	replay    [ReplayDepth]complex128
	replayPos int
	replayLen int
	playPos   int

	hostBuf  []complex128
	hostPos  int
	triggers uint64
	txCount  uint64
}

// New returns a controller with the WGN preset, a 0.1 ms uptime, no delay,
// and unit gain.
func New() *Controller {
	c := &Controller{
		waveform: WaveformWGN,
		uptime:   2500, // 0.1 ms at 25 MSPS
		gain:     1,
	}
	c.wgn.seed(0xACE1)
	return c
}

// SetWaveform selects the jamming waveform preset.
func (c *Controller) SetWaveform(w Waveform) error {
	if w > WaveformHostStream {
		return fmt.Errorf("jammer: unknown waveform %v", w)
	}
	c.waveform = w
	return nil
}

// SetUptimeSamples sets the jamming burst length in baseband samples.
// The hardware register is 32 bits wide.
func (c *Controller) SetUptimeSamples(n uint64) error {
	if n < MinUptimeSamples || n > 1<<32 {
		return fmt.Errorf("jammer: uptime %d samples outside [1, 2^32]", n)
	}
	c.uptime = n
	return nil
}

// UptimeSamples returns the configured burst length.
func (c *Controller) UptimeSamples() uint64 { return c.uptime }

// SetDelaySamples sets the trigger-to-jam delay for surgical jamming.
func (c *Controller) SetDelaySamples(n uint64) { c.delay = n }

// SetGain sets the TX amplitude scale applied to the waveform.
func (c *Controller) SetGain(g float64) { c.gain = g }

// SetHostStream provides the buffer replayed by WaveformHostStream. The
// buffer is cycled continuously while jamming.
func (c *Controller) SetHostStream(buf []complex128) {
	c.hostBuf = append(c.hostBuf[:0], buf...)
	c.hostPos = 0
}

// Phase returns the controller's current lifecycle phase.
func (c *Controller) Phase() Phase { return c.st }

// OnPhase installs the phase-transition observer (nil to remove). The
// transition into PhaseJamming is reported on the tick of the first sample
// that actually reaches RF, so trigger→RF-on spans exactly InitCycles.
func (c *Controller) OnPhase(fn PhaseFunc) { c.onPhase = fn }

// toPhase switches phase and notifies the observer.
func (c *Controller) toPhase(to Phase) {
	from := c.st
	if from == to {
		return
	}
	c.st = to
	if c.onPhase != nil {
		c.onPhase(from, to)
	}
}

// Reset aborts any jamming in progress and clears counters and capture
// state; configuration is preserved.
func (c *Controller) Reset() {
	c.st = PhaseIdle
	c.rfPending = false
	c.remaining = 0
	c.replayPos, c.replayLen, c.playPos = 0, 0, 0
	c.hostPos = 0
	c.triggers = 0
	c.txCount = 0
}

// Process advances one baseband sample tick. rx is the receive-path sample
// (captured for the replay waveform), trigger is the state-machine output
// for this tick. It returns the transmit sample (0 when not jamming).
func (c *Controller) Process(rx fixed.IQ, trigger bool) complex128 {
	// The replay capture runs whenever we are not transmitting, keeping the
	// "most recently received samples" fresh.
	if c.st != PhaseJamming {
		c.replay[c.replayPos] = rx.Complex()
		c.replayPos = (c.replayPos + 1) % ReplayDepth
		if c.replayLen < ReplayDepth {
			c.replayLen++
		}
	}

	if trigger && c.st == PhaseIdle {
		c.triggers++
		if c.delay > 0 {
			c.toPhase(PhaseDelay)
			c.remaining = c.delay
		} else {
			c.toPhase(PhaseInit)
			c.remaining = InitSamples
		}
	}

	switch c.st {
	case PhaseDelay:
		c.remaining--
		if c.remaining == 0 {
			c.toPhase(PhaseInit)
			c.remaining = InitSamples
		}
		return 0
	case PhaseInit:
		c.remaining--
		if c.remaining == 0 {
			// Enter the jamming phase silently; the observer is notified
			// with the first emitted sample so RF-on lands on the tick the
			// waveform actually reaches the antenna.
			c.st = PhaseJamming
			c.rfPending = true
			c.remaining = c.uptime
			c.playPos = 0
			c.hostPos = 0
		}
		return 0
	case PhaseJamming:
		if c.rfPending {
			c.rfPending = false
			if c.onPhase != nil {
				c.onPhase(PhaseInit, PhaseJamming)
			}
		}
		out := c.waveformSample()
		c.txCount++
		c.remaining--
		if c.remaining == 0 {
			c.toPhase(PhaseIdle)
		}
		return out
	default:
		return 0
	}
}

// ProcessQuietSpan advances the controller through len(tx) sample ticks
// that carry no trigger, bit-identically to calling Process(rx, false) once
// per tick. The receive samples arrive as the SoA int16 planes the block
// datapath stages (iPlane/qPlane must be at least len(tx) long); tx receives
// the transmit output. It returns the number of nonzero transmit samples
// emitted, which is what the core's JamSamples counter accumulates.
//
// The whole point is bulk handling of the overwhelmingly common phases: an
// idle span only refreshes the replay capture ring (at most ReplayDepth
// sample conversions no matter how long the span is, since earlier writes
// would be overwritten anyway), delay/init countdowns are consumed in one
// subtraction, and an active burst runs the waveform generator in a tight
// loop (block-generated for WGN, see lfsrGaussian.fill). Phase-transition
// callbacks fire exactly as they would per sample.
func (c *Controller) ProcessQuietSpan(iPlane, qPlane []int16, tx []complex128) (jamSamples uint64) {
	n := len(tx)
	_ = iPlane[:n]
	_ = qPlane[:n]
	i := 0
	for i < n {
		switch c.st {
		case PhaseIdle:
			// With no trigger arriving, idle absorbs the rest of the span:
			// capture the tail into the replay ring and emit silence.
			c.captureSpan(iPlane[i:n], qPlane[i:n])
			clear(tx[i:n])
			return jamSamples
		case PhaseDelay, PhaseInit:
			span := uint64(n - i)
			if c.remaining < span {
				span = c.remaining
			}
			m := int(span)
			// The replay capture keeps running until RF turns on.
			c.captureSpan(iPlane[i:i+m], qPlane[i:i+m])
			clear(tx[i : i+m])
			c.remaining -= span
			i += m
			if c.remaining == 0 {
				if c.st == PhaseDelay {
					c.toPhase(PhaseInit)
					c.remaining = InitSamples
				} else {
					// Enter jamming silently; the observer fires with the
					// first emitted sample, exactly like Process.
					c.st = PhaseJamming
					c.rfPending = true
					c.remaining = c.uptime
					c.playPos = 0
					c.hostPos = 0
				}
			}
		case PhaseJamming:
			if c.rfPending {
				c.rfPending = false
				if c.onPhase != nil {
					c.onPhase(PhaseInit, PhaseJamming)
				}
			}
			span := uint64(n - i)
			if c.remaining < span {
				span = c.remaining
			}
			m := int(span)
			if c.waveform == WaveformWGN {
				jamSamples += uint64(c.wgn.fill(tx[i:i+m], c.gain))
			} else {
				for k := 0; k < m; k++ {
					out := c.waveformSample()
					if out != 0 {
						jamSamples++
					}
					tx[i+k] = out
				}
			}
			c.txCount += span
			c.remaining -= span
			i += m
			if c.remaining == 0 {
				c.toPhase(PhaseIdle)
			}
		}
	}
	return jamSamples
}

// captureSpan feeds m quiet receive samples into the replay ring with the
// same final state m individual captures would leave: only the last
// ReplayDepth samples of the span can survive, so earlier ones just advance
// the write position without converting or storing anything.
func (c *Controller) captureSpan(iPlane, qPlane []int16) {
	m := len(iPlane)
	if m == 0 {
		return
	}
	start := 0
	if m > ReplayDepth {
		start = m - ReplayDepth
		c.replayPos = (c.replayPos + start) % ReplayDepth
	}
	for k := start; k < m; k++ {
		c.replay[c.replayPos] = fixed.IQ{I: iPlane[k], Q: qPlane[k]}.Complex()
		c.replayPos = (c.replayPos + 1) % ReplayDepth
	}
	c.replayLen += m
	if c.replayLen > ReplayDepth {
		c.replayLen = ReplayDepth
	}
}

func (c *Controller) waveformSample() complex128 {
	g := complex(c.gain, 0)
	switch c.waveform {
	case WaveformWGN:
		return g * c.wgn.sample()
	case WaveformReplay:
		if c.replayLen == 0 {
			return 0
		}
		// Play the capture buffer oldest-first, cycling repetitively.
		idx := (c.replayPos + c.playPos) % c.replayLen
		c.playPos = (c.playPos + 1) % c.replayLen
		return g * c.replay[idx]
	case WaveformHostStream:
		if len(c.hostBuf) == 0 {
			return 0
		}
		s := c.hostBuf[c.hostPos]
		c.hostPos = (c.hostPos + 1) % len(c.hostBuf)
		return g * s
	default:
		return 0
	}
}

// Resources reports the synthesized utilization of the jamming controller
// and waveform generators (estimated; the paper gives block-level numbers
// only for the two detectors).
func (c *Controller) Resources() fpga.Resources {
	return fpga.Resources{Slices: 860, FFs: 1104, BRAMs: 2, LUTs: 1491, DSP48s: 0}
}

// lfsrGaussian approximates white Gaussian noise in hardware fashion: a
// shift-register pseudorandom generator (xorshift32, a composition of
// linear-feedback shift operations) supplies uniform words and the central
// limit theorem (sum of 12 uniforms, per rail) shapes them. Unit average
// power. Plain Galois LFSR states are too correlated between successive
// reads for the CLT sum; the xorshift triple scrambles enough.
//
// Each rail sums its 12 words as integers and converts once. That equals
// the float sum of the 12 terms u/2³² exactly: every partial sum is a
// multiple of 2⁻³² below 12, so it needs at most 36 significant bits.
// sample draws one complex sample and is the reference; fill produces a
// whole burst bit-identically, running wgnLanes samples' 24-step chains
// interleaved from start states one jump24 lookup apart.
type lfsrGaussian struct {
	reg uint32
}

// wgnLanes is how many samples fill synthesizes side by side.
const wgnLanes = 4

// wgnScale sets each rail's variance to 1/2 for unit total power.
const wgnScale = 0.7071067811865476

// jump24 is M²⁴ for the xorshift32 step matrix M over GF(2), split by
// input byte: jump24[b][v] is M²⁴ applied to v<<(8b), so M²⁴·s is the XOR
// of four lookups (see jump). 24 steps are one complex sample.
var jump24 [4][256]uint32

func init() {
	// Column j of M²⁴ is the image of the unit vector 1<<j.
	var col [32]uint32
	for j := range col {
		s := uint32(1) << j
		for k := 0; k < 24; k++ {
			s = xorshift(s)
		}
		col[j] = s
	}
	for b := range jump24 {
		for v := range jump24[b] {
			var acc uint32
			for bit := 0; bit < 8; bit++ {
				if v>>bit&1 != 0 {
					acc ^= col[8*b+bit]
				}
			}
			jump24[b][v] = acc
		}
	}
}

// jump returns the state 24 xorshift steps after s.
func jump(s uint32) uint32 {
	return jump24[0][s&0xff] ^ jump24[1][s>>8&0xff] ^ jump24[2][s>>16&0xff] ^ jump24[3][s>>24]
}

func xorshift(s uint32) uint32 {
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	return s
}

// railValue maps the integer sum of 12 uniform words to a rail value: the
// sum of 12 uniform [0,1) variables minus 6, mean 0 and variance 1. The
// sum is below 2³⁶, so the int64 conversion is exact and cheaper than the
// uint64 one.
func railValue(sum uint64) float64 {
	return float64(int64(sum))/(1<<32) - 6
}

func (l *lfsrGaussian) seed(s uint32) {
	if s == 0 {
		s = 1 // the all-zero shift-register state is absorbing
	}
	l.reg = s
}

func (l *lfsrGaussian) next() uint32 {
	l.reg = xorshift(l.reg)
	return l.reg
}

func (l *lfsrGaussian) rail() float64 {
	var sum uint64
	for i := 0; i < 12; i++ {
		sum += uint64(l.next())
	}
	return railValue(sum)
}

func (l *lfsrGaussian) sample() complex128 {
	return complex(l.rail()*wgnScale, l.rail()*wgnScale)
}

// laneStates holds the shift-register states of wgnLanes samples.
type laneStates [wgnLanes]uint32

// railSums advances every lane 12 steps and returns each lane's sum of the
// 12 words, the four serially dependent chains interleaved. It is a
// function of its own so its eight live values get registers: written
// inline in fill's loop, the compiler spilled the sums to the stack.
func (s *laneStates) railSums() (a0, a1, a2, a3 uint64) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for i := 0; i < 12; i++ {
		s0 = xorshift(s0)
		s1 = xorshift(s1)
		s2 = xorshift(s2)
		s3 = xorshift(s3)
		a0 += uint64(s0)
		a1 += uint64(s1)
		a2 += uint64(s2)
		a3 += uint64(s3)
	}
	*s = laneStates{s0, s1, s2, s3}
	return a0, a1, a2, a3
}

// fill writes len(tx) gain-scaled samples, bit-identical to
// tx[k] = complex(gain, 0) * l.sample() in order, and returns how many are
// nonzero. Whole groups of wgnLanes samples run their chains interleaved,
// so the out-of-order core overlaps them instead of waiting on one
// serially dependent chain; the remainder goes through sample.
func (l *lfsrGaussian) fill(tx []complex128, gain float64) (nonzero int) {
	g := complex(gain, 0)
	s := laneStates{l.reg}
	s[1] = jump(s[0])
	s[2] = jump(s[1])
	s[3] = jump(s[2])
	k := 0
	for ; k+wgnLanes <= len(tx); k += wgnLanes {
		out := tx[k : k+wgnLanes : k+wgnLanes]
		// The next group's start states depend only on s[3], so this
		// lookup chain overlaps the lanes' work below.
		n0 := jump(s[3])
		n1 := jump(n0)
		n2 := jump(n1)
		n3 := jump(n2)
		i0, i1, i2, i3 := s.railSums()
		q0, q1, q2, q3 := s.railSums()
		out[0] = g * complex(railValue(i0)*wgnScale, railValue(q0)*wgnScale)
		out[1] = g * complex(railValue(i1)*wgnScale, railValue(q1)*wgnScale)
		out[2] = g * complex(railValue(i2)*wgnScale, railValue(q2)*wgnScale)
		out[3] = g * complex(railValue(i3)*wgnScale, railValue(q3)*wgnScale)
		for _, v := range out {
			if v != 0 {
				nonzero++
			}
		}
		s = laneStates{n0, n1, n2, n3}
	}
	l.reg = s[0]
	for ; k < len(tx); k++ {
		out := g * l.sample()
		if out != 0 {
			nonzero++
		}
		tx[k] = out
	}
	return nonzero
}
