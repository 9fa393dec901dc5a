// Package trigger implements the jamming event builder of the custom DSP
// core: the three-stage hardware state machine that combines detector
// outputs into a jamming trigger (paper §2.4: "a three-stage hardware state
// machine allows the user to select up to three trigger event combinations,
// all of which must occur within a user-assigned time interval").
package trigger

import (
	"fmt"
	"strings"
)

// Event identifies one detector output that can participate in a trigger
// combination.
type Event uint8

// The detector events available to the state machine.
const (
	// EventNone marks an unused stage.
	EventNone Event = iota
	// EventXCorr is a cross-correlator threshold crossing.
	EventXCorr
	// EventEnergyHigh is an energy-rise detection.
	EventEnergyHigh
	// EventEnergyLow is an energy-fall detection.
	EventEnergyLow
)

func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventXCorr:
		return "xcorr"
	case EventEnergyHigh:
		return "energy-high"
	case EventEnergyLow:
		return "energy-low"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// MaxStages is the depth of the hardware state machine.
const MaxStages = 3

// Inputs carries the per-sample detector outputs into the state machine.
type Inputs struct {
	XCorr      bool
	EnergyHigh bool
	EnergyLow  bool
}

func (in Inputs) has(e Event) bool {
	switch e {
	case EventXCorr:
		return in.XCorr
	case EventEnergyHigh:
		return in.EnergyHigh
	case EventEnergyLow:
		return in.EnergyLow
	default:
		return false
	}
}

// StateMachine is the three-stage trigger combiner. Configure it with a
// sequence of 1..3 events and a window (in baseband samples) within which
// all of them must occur; it then fires once per completed sequence.
// An empty sequence never fires. Not safe for concurrent use.
type StateMachine struct {
	stages  []Event
	window  uint64 // samples allowed from first event to completion
	stage   int
	elapsed uint64
	armed   bool
	onTrans TransitionFunc
}

// TransitionFunc observes state-machine transitions: the stage held before
// and after one Process call, and whether the sequence completed (fired).
// A window expiry that abandons a partial sequence reports toStage 0
// without fired. The hook must not allocate; it runs in the sample loop.
type TransitionFunc func(fromStage, toStage int, fired bool)

// OnTransition installs the transition observer (nil to remove). The
// telemetry layer uses it to journal arm/advance/abandon/fire events.
func (sm *StateMachine) OnTransition(fn TransitionFunc) { sm.onTrans = fn }

// New returns a state machine that fires on every occurrence of the single
// given event (the most common configuration).
func New(e Event) *StateMachine {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{e}, 0); err != nil {
		panic(err) // single-event config cannot fail
	}
	return sm
}

// Configure sets the event sequence and the completion window in samples.
// A window of 0 means the whole sequence must complete on a single sample
// when more than one stage is configured; for a single stage the window is
// irrelevant.
func (sm *StateMachine) Configure(stages []Event, windowSamples uint64) error {
	if len(stages) == 0 || len(stages) > MaxStages {
		return fmt.Errorf("trigger: need 1..%d stages, got %d", MaxStages, len(stages))
	}
	for _, e := range stages {
		if e == EventNone || e > EventEnergyLow {
			return fmt.Errorf("trigger: invalid stage event %v", e)
		}
	}
	sm.stages = append(sm.stages[:0], stages...)
	sm.window = windowSamples
	sm.ResetState()
	return nil
}

// ResetState returns the FSM to its idle state without touching the
// configuration.
func (sm *StateMachine) ResetState() {
	sm.stage = 0
	sm.elapsed = 0
	sm.armed = false
}

// Process advances the state machine by one baseband sample and reports
// whether the trigger fired on this sample. Multiple stages may be consumed
// by a single sample if their events coincide.
func (sm *StateMachine) Process(in Inputs) bool {
	if len(sm.stages) == 0 {
		return false
	}
	entry := sm.stage
	if sm.armed {
		sm.elapsed++
		if sm.window > 0 && sm.elapsed > sm.window {
			sm.ResetState() // window expired: abandon partial sequence
			if sm.onTrans != nil && entry > 0 {
				sm.onTrans(entry, 0, false)
			}
			entry = 0
		}
	}
	for sm.stage < len(sm.stages) && in.has(sm.stages[sm.stage]) {
		if sm.stage == 0 {
			sm.armed = true
			sm.elapsed = 0
		}
		sm.stage++
	}
	if sm.stage == len(sm.stages) {
		sm.ResetState()
		if sm.onTrans != nil {
			sm.onTrans(entry, len(sm.stages), true)
		}
		return true
	}
	if sm.onTrans != nil && sm.stage != entry {
		sm.onTrans(entry, sm.stage, false)
	}
	return false
}

// Armed reports whether a partial sequence is in progress (stage ≥ 1 and
// the completion window ticking). The block datapath uses it to decide
// whether a quiet span can be batched without losing cycle-accurate
// abandon events.
func (sm *StateMachine) Armed() bool { return sm.armed }

// AdvanceQuiet advances the state machine by n samples that carry no
// detector events, bit-identically to n Process calls with zero Inputs:
// an armed window keeps ticking and, if it expires inside the span, the
// partial sequence is abandoned (one transition callback, as the scalar
// path would emit at the expiry sample). Idle machines are untouched.
func (sm *StateMachine) AdvanceQuiet(n uint64) {
	if n == 0 || !sm.armed {
		return
	}
	sm.elapsed += n
	if sm.window > 0 && sm.elapsed > sm.window {
		entry := sm.stage
		sm.ResetState()
		if sm.onTrans != nil && entry > 0 {
			sm.onTrans(entry, 0, false)
		}
	}
}

func (sm *StateMachine) String() string {
	names := make([]string, len(sm.stages))
	for i, e := range sm.stages {
		names[i] = e.String()
	}
	return fmt.Sprintf("trigger[%s within %d samples]",
		strings.Join(names, "->"), sm.window)
}

// EdgeDetector converts a level trigger (comparator output held high while
// the condition persists) into single-sample pulses, with an optional
// holdoff to suppress re-triggering while a detection is being serviced.
type EdgeDetector struct {
	prev    bool
	holdoff uint64 // samples to stay quiet after a pulse
	quiet   uint64
}

// NewEdgeDetector returns an edge detector with the given holdoff (0 for
// none).
func NewEdgeDetector(holdoffSamples uint64) *EdgeDetector {
	return &EdgeDetector{holdoff: holdoffSamples}
}

// Process consumes one level sample and reports a rising edge.
func (e *EdgeDetector) Process(level bool) bool {
	if e.quiet > 0 {
		e.quiet--
		e.prev = level
		return false
	}
	rising := level && !e.prev
	e.prev = level
	if rising {
		e.quiet = e.holdoff
	}
	return rising
}

// AdvanceQuiet advances the edge detector by n all-false level samples,
// bit-identically to n Process(false) calls: any holdoff countdown burns
// down (clamping at zero) and the previous-level latch clears.
func (e *EdgeDetector) AdvanceQuiet(n uint64) {
	if n == 0 {
		return
	}
	if e.quiet > n {
		e.quiet -= n
	} else {
		e.quiet = 0
	}
	e.prev = false
}

// Reset clears the edge detector state.
func (e *EdgeDetector) Reset() {
	e.prev = false
	e.quiet = 0
}
