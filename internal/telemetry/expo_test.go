package telemetry_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// TestJournalOverflowExposedOnMetrics fills a deliberately shallow journal
// past its ring depth and checks the overflow is visible everywhere an
// operator would look: Live.Dropped, the snapshot, and the /metrics scrape
// of a fleet cell bound to the recorder (cell_journal_dropped_total) —
// alongside the engagement counter so a scrape can tell "journal truncated"
// apart from "nothing happened".
func TestJournalOverflowExposedOnMetrics(t *testing.T) {
	l := telemetry.NewLive(8)
	for i := 0; i < 20; i++ {
		l.Event(telemetry.EvEnergyHighEdge, uint64(100*i), 0, uint32(i+1))
		l.Event(telemetry.EvHoldoffRelease, uint64(100*i+50), 0, uint32(i+1))
	}
	const want = 40 - 8
	if got := l.Dropped(); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	s := l.Snapshot()
	if s.Dropped != want {
		t.Errorf("snapshot Dropped = %d, want %d", s.Dropped, want)
	}
	if s.Engagements != 20 {
		t.Errorf("snapshot Engagements = %d, want 20 (counted, not journal-limited)", s.Engagements)
	}

	agg := fleet.New(fleet.Options{})
	agg.Cell("jamlab").BindLive(l)
	rec := httptest.NewRecorder()
	agg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, line := range []string{
		`reactivejam_cell_journal_dropped_total{cell="jamlab"} 32`,
		`reactivejam_cell_engagements_total{cell="jamlab"} 20`,
		"reactivejam_fleet_journal_dropped_total 32",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q\n%s", line, body)
		}
	}
}
