package telemetry

import (
	"bytes"
	"sync"
	"testing"
)

// TestEngagementCounterSurvivesOverflow: the engagement count comes from a
// counter incremented at append time, so it must keep the true total even
// when the EvHoldoffRelease events themselves were evicted from the ring.
func TestEngagementCounterSurvivesOverflow(t *testing.T) {
	l := NewLive(4)
	for i := 0; i < 10; i++ {
		l.Event(EvHoldoffRelease, uint64(i), 0, uint32(i+1))
	}
	// Flood the ring so no release events remain in the journal.
	for i := 0; i < 16; i++ {
		l.Event(EvHostPoll, uint64(1000+i), 0, 0)
	}
	for _, e := range l.Events() {
		if e.Kind == EvHoldoffRelease {
			t.Fatal("test setup: release events should have been evicted")
		}
	}
	if s := l.Snapshot(); s.Engagements != 10 {
		t.Errorf("Engagements = %d, want 10 despite eviction", s.Engagements)
	}
}

// TestLiveConcurrentMergeAndExport races the APIs added for the verdict
// and span layers — Dropped reads, engagement counts and Chrome trace
// export — against a concurrently appending datapath. Run under -race by
// `make ci`.
func TestLiveConcurrentMergeAndExport(t *testing.T) {
	l := NewLive(128)
	var c Counters
	l.BindCounters(&c)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch g {
				case 0:
					drive(l, uint64(i)*2000)
					l.Event(EvHoldoffRelease, uint64(i)*2000+1900, 0, uint32(i+1))
				case 1:
					_ = l.Dropped()
					_ = l.Snapshot().Engagements
				default:
					var buf bytes.Buffer
					_ = l.WriteTrace(&buf)
				}
			}
		}(g)
	}
	wg.Wait()

	s := l.Snapshot()
	if s.Engagements != 300 {
		t.Errorf("Engagements = %d, want 300", s.Engagements)
	}
	if got := s.Histogram(HistReaction).Count; got != 300 {
		t.Errorf("reaction count = %d, want 300", got)
	}
}
