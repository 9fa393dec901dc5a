package experiments

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestMeasureReactionLatencyPinned pins the seeded reaction run of
// `experiments -run reaction` (100 frames, seed 7): the counters, the
// reaction and trigger→RF histograms, the journal's event and engagement
// counts and a hash of every journaled event, frame markers included.
func TestMeasureReactionLatencyPinned(t *testing.T) {
	res, err := MeasureReactionLatency(ReactionConfig{Frames: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Snapshot
	wantCounters := telemetry.CounterSnapshot{Samples: 238000, EnergyHighDetections: 104, JamTriggers: 104, JamSamples: 25000}
	if s.Counters != wantCounters || res.Triggered != 104 {
		t.Errorf("counters %+v, %d triggered; want %+v, 104", s.Counters, res.Triggered, wantCounters)
	}
	wantReaction := [][2]uint64{{79, 2}, {83, 2}, {87, 7}, {91, 4}, {95, 7}, {99, 12}, {103, 6}, {107, 9},
		{111, 5}, {115, 1}, {119, 9}, {123, 8}, {127, 4}, {135, 13}, {143, 7}, {151, 3}, {159, 1}}
	if got := s.Histogram(telemetry.HistReaction).Buckets; !reflect.DeepEqual(got, wantReaction) {
		t.Errorf("reaction buckets %v, want %v", got, wantReaction)
	}
	if got, want := s.Histogram(telemetry.HistTriggerToRF).Buckets, [][2]uint64{{8, 100}}; !reflect.DeepEqual(got, want) {
		t.Errorf("trigger→RF buckets %v, want %v", got, want)
	}
	if s.Events != 708 || s.Dropped != 0 || s.Engagements != 100 {
		t.Errorf("%d events, %d dropped, %d engagements; want 708, 0, 100", s.Events, s.Dropped, s.Engagements)
	}
	h := fnv.New64a()
	fmt.Fprint(h, res.Recorder.Events())
	if got := h.Sum64(); got != 0x9fb3f51e1cb00ffc {
		t.Errorf("journal hash %#x, want 0x9fb3f51e1cb00ffc", got)
	}
}
