package trigger

import (
	"math"
	"testing"
)

// Differential tests for the block datapath's bulk quiet-span advance:
// AdvanceQuiet(n) must leave an EdgeDetector or StateMachine in exactly the
// state n scalar steps with no input would — including holdoff countdowns
// that end inside the span and armed windows that expire inside it, where
// the abandon transition must fire exactly once.

func TestEdgeDetectorAdvanceQuietMatchesScalar(t *testing.T) {
	for _, holdoff := range []uint64{0, 1, 5, 16, 100} {
		for _, span := range []uint64{1, 2, 4, 15, 16, 17, 63, 64, 65, 1000} {
			bulk := NewEdgeDetector(holdoff)
			scalar := NewEdgeDetector(holdoff)
			// Put both into a post-pulse holdoff with the level still high,
			// so prev=true and quiet=holdoff.
			bulk.Process(true)
			scalar.Process(true)

			bulk.AdvanceQuiet(span)
			for i := uint64(0); i < span; i++ {
				if scalar.Process(false) {
					t.Fatalf("holdoff %d: scalar edge on quiet sample %d", holdoff, i)
				}
			}
			if *bulk != *scalar {
				t.Fatalf("holdoff %d span %d: bulk %+v != scalar %+v", holdoff, span, *bulk, *scalar)
			}
			// Behavior after the span must match too: a rising edge now.
			if b, s := bulk.Process(true), scalar.Process(true); b != s {
				t.Fatalf("holdoff %d span %d: post-span edge %v != %v", holdoff, span, b, s)
			}
		}
	}
}

func TestStateMachineAdvanceQuietIdleUntouched(t *testing.T) {
	sm := New(EventXCorr)
	before := *sm
	sm.AdvanceQuiet(1000)
	if sm.armed != before.armed || sm.stage != before.stage || sm.elapsed != before.elapsed {
		t.Fatalf("idle machine mutated by AdvanceQuiet: %+v", *sm)
	}
}

func TestStateMachineAdvanceQuietMatchesScalar(t *testing.T) {
	for _, window := range []uint64{0, 1, 5, 64, 200} {
		for _, span := range []uint64{1, 4, 5, 6, 63, 64, 65, 199, 200, 201, 500} {
			build := func() (*StateMachine, *[]int) {
				sm := New(EventXCorr)
				if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, window); err != nil {
					t.Fatal(err)
				}
				var abandons []int
				sm.OnTransition(func(from, to int, fired bool) {
					if !fired && to == 0 {
						abandons = append(abandons, from)
					}
				})
				// Arm stage 1.
				sm.Process(Inputs{EnergyHigh: true})
				return sm, &abandons
			}
			bulk, bulkAb := build()
			scalar, scalarAb := build()

			bulk.AdvanceQuiet(span)
			for i := uint64(0); i < span; i++ {
				if scalar.Process(Inputs{}) {
					t.Fatalf("window %d: scalar fired on quiet sample %d", window, i)
				}
			}
			if bulk.armed != scalar.armed || bulk.stage != scalar.stage || bulk.elapsed != scalar.elapsed {
				t.Fatalf("window %d span %d: bulk {armed %v stage %d elapsed %d} != scalar {armed %v stage %d elapsed %d}",
					window, span, bulk.armed, bulk.stage, bulk.elapsed,
					scalar.armed, scalar.stage, scalar.elapsed)
			}
			if len(*bulkAb) != len(*scalarAb) {
				t.Fatalf("window %d span %d: %d bulk abandons != %d scalar", window, span, len(*bulkAb), len(*scalarAb))
			}
			// The machine must behave identically afterwards.
			if b, s := bulk.Process(Inputs{XCorr: true}), scalar.Process(Inputs{XCorr: true}); b != s {
				t.Fatalf("window %d span %d: post-span fire %v != %v", window, span, b, s)
			}
		}
	}
}

// A span of QuietLimit() samples ends on the window expiry, and a shorter
// one does not; idle machines and armed ones without a window are unbounded.
func TestStateMachineQuietLimitEndsOnExpiry(t *testing.T) {
	for _, window := range []uint64{1, 5, 64} {
		for _, pre := range []uint64{0, 1, window / 2, window} {
			sm := New(EventXCorr)
			if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, window); err != nil {
				t.Fatal(err)
			}
			abandons := 0
			sm.OnTransition(func(from, to int, fired bool) {
				if !fired && to == 0 {
					abandons++
				}
			})
			sm.Process(Inputs{EnergyHigh: true})
			sm.AdvanceQuiet(pre)
			lim := sm.QuietLimit()
			if lim != window-pre+1 {
				t.Fatalf("window %d after %d: QuietLimit %d, want %d", window, pre, lim, window-pre+1)
			}
			sm.AdvanceQuiet(lim - 1)
			if abandons != 0 || !sm.armed {
				t.Fatalf("window %d after %d: expired before the limit", window, pre)
			}
			sm.AdvanceQuiet(1)
			if abandons != 1 || sm.armed {
				t.Fatalf("window %d after %d: no expiry on the limit's sample", window, pre)
			}
			if got := sm.QuietLimit(); got != math.MaxUint64 {
				t.Fatalf("window %d: idle QuietLimit %d, want no bound", window, got)
			}
		}
	}
	sm := New(EventXCorr)
	if err := sm.Configure([]Event{EventEnergyHigh, EventXCorr}, 0); err != nil {
		t.Fatal(err)
	}
	sm.Process(Inputs{EnergyHigh: true})
	if got := sm.QuietLimit(); !sm.armed || got != math.MaxUint64 {
		t.Fatalf("armed without a window: QuietLimit %d, want no bound", got)
	}
}
