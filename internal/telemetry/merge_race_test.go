package telemetry

import (
	"sync"
	"testing"
)

// TestCounterMergeRace is the fleet-aggregation tear audit: one goroutine
// plays the datapath hot path incrementing a cell's counter block, while
// another repeatedly snapshots it and merges the snapshot into a fleet
// accumulator. Under -race this proves the snapshot/merge path performs no
// non-atomic multi-word reads; the monotonicity check proves no snapshot
// ever observes a torn intermediate going backwards.
func TestCounterMergeRace(t *testing.T) {
	var cell Counters
	var fleetAcc Counters
	const iters = 20000

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cell.Samples.Add(1)
			cell.JamTriggers.Add(1)
			cell.XCorrDetections.Add(1)
			cell.EnergyHighDetections.Add(1)
			cell.JamSamples.Add(3)
		}
	}()
	var lastSamples uint64
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := cell.Snapshot()
			if s.Samples < lastSamples {
				t.Errorf("snapshot went backwards: %d after %d", s.Samples, lastSamples)
				return
			}
			lastSamples = s.Samples
			fleetAcc.Add(s)
		}
	}()
	wg.Wait()

	final := cell.Snapshot()
	if final.Samples != iters || final.JamSamples != 3*iters {
		t.Fatalf("hot path lost increments: %+v", final)
	}
	// The accumulator holds 200 partial merges; only sanity-check that the
	// adds themselves were atomic (a torn add would corrupt the total in a
	// way unrelated to any snapshot value, caught by -race anyway).
	if acc := fleetAcc.Snapshot(); acc.Samples < lastSamples {
		t.Fatalf("accumulator lost the last merge: %d < %d", acc.Samples, lastSamples)
	}
}
