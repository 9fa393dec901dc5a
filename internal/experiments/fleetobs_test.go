package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry/fleet"
)

// fleetObsLedger renders a result's ledger with zeroed wall clock, the
// byte-stable form two runs of the same seed must agree on.
func fleetObsLedger(t *testing.T, res *FleetObsResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fleet.WriteLedger(&buf, res.Snap, fleet.LedgerMeta{
		Scenario: "fleetobs", Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetObsDeterministicAcrossPoolWidths: the same seed yields
// byte-identical fleet ledgers sequentially and at full pool width, and
// the fleet plane reconciles bit-for-bit with every cell's own recorder.
func TestFleetObsDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := FleetObsConfig{Cells: 24, FramesPerCell: 3, Seed: 7}
	var ledgers [][]byte
	for _, workers := range []int{1, 8} {
		withParallelism(t, workers, func() {
			res, err := RunFleetObs(cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if err := res.Reconcile(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(res.Snap.Cells) != cfg.Cells {
				t.Fatalf("workers=%d: %d cells, want %d", workers, len(res.Snap.Cells), cfg.Cells)
			}
			if res.Snap.Total.Dropped != 0 {
				t.Fatalf("workers=%d: %d journal drops", workers, res.Snap.Total.Dropped)
			}
			ledgers = append(ledgers, fleetObsLedger(t, res))
		})
	}
	if !bytes.Equal(ledgers[0], ledgers[1]) {
		t.Fatalf("ledger differs between pool widths:\n--- w=1\n%s\n--- w=8\n%s",
			ledgers[0], ledgers[1])
	}
}

// TestFleetObsScrapeWithinBudget: the OpenMetrics export of a fleetobs run
// with more cells than the label budget collapses the rest into
// cell="other" and passes the cardinality lint at the aggregator's budget.
func TestFleetObsScrapeWithinBudget(t *testing.T) {
	res, err := RunFleetObs(FleetObsConfig{Cells: 33, FramesPerCell: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	budget := res.Agg.LabelBudget()
	if len(res.Snap.Cells) <= budget {
		t.Fatalf("%d cells do not exceed the label budget %d", len(res.Snap.Cells), budget)
	}
	var buf bytes.Buffer
	if err := res.Snap.WriteOpenMetrics(&buf, budget); err != nil {
		t.Fatal(err)
	}
	cells, err := fleet.LintMetrics(strings.NewReader(buf.String()), budget)
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
	if cells != budget {
		t.Fatalf("labelled cells = %d, want %d", cells, budget)
	}
	if want := `cell="` + fleet.OverflowCell + `"`; !strings.Contains(buf.String(), want) {
		t.Errorf("scrape lacks the %s series", want)
	}
}

// TestFleetObsRestoresSink: RunFleetObs leaves the previously installed
// process-wide sink in place.
func TestFleetObsRestoresSink(t *testing.T) {
	prev := fleet.New(fleet.Options{})
	SetFleetSink(prev)
	defer SetFleetSink(nil)
	if _, err := RunFleetObs(FleetObsConfig{Cells: 2, FramesPerCell: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if FleetSink() != prev {
		t.Fatal("fleet sink not restored")
	}
	if prev.Cells() != 0 {
		t.Fatal("fleetobs leaked cells into the previous sink")
	}
}
