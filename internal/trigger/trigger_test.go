package trigger

import (
	"testing"
	"testing/quick"
)

func TestSingleEventFiresEveryOccurrence(t *testing.T) {
	sm := New(EventXCorr)
	fires := 0
	for i := 0; i < 10; i++ {
		if sm.Process(Inputs{XCorr: i%2 == 0}) {
			fires++
		}
	}
	if fires != 5 {
		t.Errorf("fired %d times, want 5", fires)
	}
}

func TestConfigureValidation(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure(nil, 0); err == nil {
		t.Error("empty sequence accepted")
	}
	if err := sm.Configure(make([]Event, 4), 0); err == nil {
		t.Error("4 stages accepted (hardware has 3)")
	}
	if err := sm.Configure([]Event{EventNone}, 0); err == nil {
		t.Error("EventNone stage accepted")
	}
	if err := sm.Configure([]Event{Event(9)}, 0); err == nil {
		t.Error("bogus event accepted")
	}
	if err := sm.Configure([]Event{EventXCorr, EventEnergyHigh, EventEnergyLow}, 100); err != nil {
		t.Error(err)
	}
}

func TestTwoStageSequenceWithinWindow(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, 10); err != nil {
		t.Fatal(err)
	}
	// Energy high at t=0, xcorr at t=5: inside window, must fire at t=5.
	if sm.Process(Inputs{EnergyHigh: true}) {
		t.Fatal("fired on first stage alone")
	}
	for i := 0; i < 4; i++ {
		if sm.Process(Inputs{}) {
			t.Fatal("fired with no event")
		}
	}
	if !sm.Process(Inputs{XCorr: true}) {
		t.Error("did not fire when sequence completed in window")
	}
}

func TestWindowExpiryResetsSequence(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, 5); err != nil {
		t.Fatal(err)
	}
	sm.Process(Inputs{EnergyHigh: true})
	for i := 0; i < 10; i++ {
		sm.Process(Inputs{})
	}
	// Window long gone: xcorr alone must not complete the stale sequence.
	if sm.Process(Inputs{XCorr: true}) {
		t.Error("fired after window expired")
	}
	// But a fresh complete sequence still works.
	sm.Process(Inputs{EnergyHigh: true})
	if !sm.Process(Inputs{XCorr: true}) {
		t.Error("fresh sequence did not fire")
	}
}

func TestSimultaneousEventsCompleteInOneSample(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, 0); err != nil {
		t.Fatal(err)
	}
	if !sm.Process(Inputs{EnergyHigh: true, XCorr: true}) {
		t.Error("coincident events should satisfy both stages at once")
	}
}

func TestThreeStageSequence(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr, EventEnergyLow}, 100); err != nil {
		t.Fatal(err)
	}
	sm.Process(Inputs{EnergyHigh: true})
	sm.Process(Inputs{XCorr: true})
	if sm.Process(Inputs{}) {
		t.Fatal("fired before final stage")
	}
	if !sm.Process(Inputs{EnergyLow: true}) {
		t.Error("three-stage sequence did not fire")
	}
	// FSM must have reset: the same final event alone must not re-fire.
	if sm.Process(Inputs{EnergyLow: true}) {
		t.Error("fired again without restarting the sequence")
	}
}

func TestOutOfOrderEventsIgnored(t *testing.T) {
	sm := &StateMachine{}
	if err := sm.Configure([]Event{EventXCorr, EventEnergyHigh}, 50); err != nil {
		t.Fatal(err)
	}
	// Stage-2 event before stage 1: ignored.
	sm.Process(Inputs{EnergyHigh: true})
	sm.Process(Inputs{XCorr: true})
	if !sm.Process(Inputs{EnergyHigh: true}) {
		t.Error("in-order sequence did not fire")
	}
}

func TestStagesAndWindowAccessors(t *testing.T) {
	sm := &StateMachine{}
	seq := []Event{EventXCorr, EventEnergyLow}
	if err := sm.Configure(seq, 42); err != nil {
		t.Fatal(err)
	}
	if len(sm.stages) != 2 || sm.stages[0] != EventXCorr {
		t.Errorf("stages = %v", sm.stages)
	}
	if sm.window != 42 {
		t.Error("window wrong")
	}
	if s := sm.String(); s != "trigger[xcorr->energy-low within 42 samples]" {
		t.Errorf("String = %q", s)
	}
}

func TestEventStrings(t *testing.T) {
	cases := map[Event]string{
		EventNone: "none", EventXCorr: "xcorr",
		EventEnergyHigh: "energy-high", EventEnergyLow: "energy-low",
		Event(77): "event(77)",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
}

func TestEdgeDetector(t *testing.T) {
	e := NewEdgeDetector(0)
	seq := []bool{false, true, true, false, true}
	want := []bool{false, true, false, false, true}
	for i, lv := range seq {
		if got := e.Process(lv); got != want[i] {
			t.Errorf("sample %d: edge = %v, want %v", i, got, want[i])
		}
	}
}

func TestEdgeDetectorHoldoff(t *testing.T) {
	e := NewEdgeDetector(3)
	if !e.Process(true) {
		t.Fatal("first edge missed")
	}
	// During holdoff nothing fires, even a new rising edge.
	for i, lv := range []bool{false, true, false} {
		if e.Process(lv) {
			t.Errorf("fired during holdoff at %d", i)
		}
	}
	if !e.Process(true) {
		t.Error("edge after holdoff missed")
	}
}

func TestEdgeDetectorReset(t *testing.T) {
	e := NewEdgeDetector(10)
	e.Process(true)
	e.Reset()
	if !e.Process(true) {
		t.Error("Reset did not clear holdoff/level")
	}
}

// Property: a single-stage FSM fires exactly as many times as its event
// occurs, regardless of pattern.
func TestSingleStageCountProperty(t *testing.T) {
	f := func(pattern []bool) bool {
		sm := New(EventEnergyHigh)
		fires, want := 0, 0
		for _, p := range pattern {
			if p {
				want++
			}
			if sm.Process(Inputs{EnergyHigh: p}) {
				fires++
			}
		}
		return fires == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the FSM never fires on empty inputs.
func TestNeverFiresOnSilenceProperty(t *testing.T) {
	f := func(n uint8, stageSel uint8) bool {
		stages := [][]Event{
			{EventXCorr},
			{EventEnergyHigh, EventXCorr},
			{EventXCorr, EventEnergyHigh, EventEnergyLow},
		}[stageSel%3]
		sm := &StateMachine{}
		if err := sm.Configure(stages, uint64(n)); err != nil {
			return false
		}
		for i := 0; i < int(n)+10; i++ {
			if sm.Process(Inputs{}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
