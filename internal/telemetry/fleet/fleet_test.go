package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

// feedCell absorbs a deterministic synthetic run into the named cell:
// frames engagements with the given reaction latency, plus ground-truth
// outcome tallies.
func feedCell(a *Aggregator, name string, frames int, reactionCycles uint64, missed int) {
	live := telemetry.NewLive(1 << 10)
	var counters telemetry.Counters
	live.BindCounters(&counters)
	cycle := uint64(0)
	for f := 0; f < frames-missed; f++ {
		live.Event(telemetry.EvFrameStart, cycle, 0, uint32(f+1))
		live.Event(telemetry.EvTriggerFire, cycle+reactionCycles-8, 0, uint32(f+1))
		live.Event(telemetry.EvJamRFOn, cycle+reactionCycles, 0, uint32(f+1))
		live.Event(telemetry.EvJamRFOff, cycle+reactionCycles+100, 0, uint32(f+1))
		live.Event(telemetry.EvHoldoffRelease, cycle+reactionCycles+120, 0, uint32(f+1))
		counters.Samples.Add(2000)
		counters.JamTriggers.Add(1)
		cycle += 2000
	}
	c := a.Cell(name)
	c.Absorb(live.Snapshot())
	c.AddOutcome(uint64(frames), uint64(frames-missed))
}

func testBudgets() []slo.Budget {
	return DefaultBudgets(20)
}

func TestAggregatorSnapshotMergesCells(t *testing.T) {
	a := New(Options{Budgets: testBudgets(), TopK: 3, LabelBudget: 4})
	feedCell(a, "cell-b", 10, 100, 0)
	feedCell(a, "cell-a", 10, 120, 0)
	feedCell(a, "cell-c", 10, 400, 1) // slow and lossy: fails SLO

	s := a.Snapshot()
	if len(s.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(s.Cells))
	}
	// Sorted by name.
	for i, want := range []string{"cell-a", "cell-b", "cell-c"} {
		if s.Cells[i].Cell != want {
			t.Fatalf("cells[%d] = %q, want %q", i, s.Cells[i].Cell, want)
		}
	}
	// Totals: counters summed, histogram counts added.
	if s.Total.Counters.JamTriggers != 10+10+9 {
		t.Errorf("total jam triggers = %d", s.Total.Counters.JamTriggers)
	}
	if s.Total.Reaction.Count != 29 {
		t.Errorf("total reaction count = %d", s.Total.Reaction.Count)
	}
	if s.Total.Frames != 30 || s.Total.Jammed != 29 {
		t.Errorf("total outcome = %d/%d", s.Total.Jammed, s.Total.Frames)
	}

	// SLO verdicts: a and b pass (reaction well under 136+20), c fails on
	// both reaction p99 and FN rate.
	if s.SLOPassing != 2 || s.SLOFailing != 1 {
		t.Fatalf("SLO passing/failing = %d/%d, want 2/1", s.SLOPassing, s.SLOFailing)
	}
	cc := s.CellByName("cell-c")
	if cc == nil || cc.SLO.Pass {
		t.Fatalf("cell-c should fail its SLO: %+v", cc)
	}
	var failed []string
	for _, chk := range cc.SLO.Failed() {
		failed = append(failed, chk.Budget.Metric)
	}
	if len(failed) != 2 || failed[0] != slo.MetricReactionP99 || failed[1] != MetricFNRate {
		t.Errorf("cell-c failed budgets = %v", failed)
	}

	// Per-cell verdict reconciles bit-for-bit with a verdict computed from
	// the cell's own metric map.
	for i := range s.Cells {
		c := &s.Cells[i]
		own := slo.Evaluate(testBudgets(), c.Metrics())
		if own.Pass != c.SLO.Pass || len(own.Checks) != len(c.SLO.Checks) {
			t.Fatalf("%s: fleet verdict diverges from own-counter verdict", c.Cell)
		}
		for j := range own.Checks {
			if own.Checks[j] != c.SLO.Checks[j] {
				t.Fatalf("%s: check %d differs: %+v vs %+v",
					c.Cell, j, own.Checks[j], c.SLO.Checks[j])
			}
		}
	}

	// Rankings: worst reaction first, zero-valued cells omitted.
	if len(s.WorstReactionP99) != 3 || s.WorstReactionP99[0].Cell != "cell-c" {
		t.Errorf("worst reaction ranking = %+v", s.WorstReactionP99)
	}
	if len(s.WorstFNRate) != 1 || s.WorstFNRate[0].Cell != "cell-c" {
		t.Errorf("worst FN ranking = %+v", s.WorstFNRate)
	}
	if len(s.WorstDropped) != 0 {
		t.Errorf("drop ranking should be empty: %+v", s.WorstDropped)
	}
}

// TestAggregatorSnapshotDeterministic: two aggregators fed the same cells
// from different goroutine interleavings produce identical snapshots and
// ledgers (modulo the wall-clock meta field, held constant here).
func TestAggregatorSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *bytes.Buffer {
		a := New(Options{Budgets: testBudgets(), TopK: 4, LabelBudget: 8})
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				feedCell(a, fmt.Sprintf("cell-%03d", i), 8, uint64(80+i*7), i%3)
			}(i)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := WriteLedger(&buf, a.Snapshot(), LedgerMeta{Scenario: "test", Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	fwd := build([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rev := build([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Fatalf("ledger depends on registration order:\n%s\nvs\n%s", fwd, rev)
	}
	// 9 lines: 1 fleet summary + 8 cells.
	if n := strings.Count(fwd.String(), "\n"); n != 9 {
		t.Fatalf("ledger has %d lines, want 9", n)
	}
	if !strings.Contains(fwd.String(), `"type":"fleet"`) {
		t.Fatalf("ledger lacks fleet summary: %s", fwd)
	}
}

// TestCellRecorderBindLive: a bound live recorder is pulled (not
// accumulated) on every snapshot, so repeated aggregator snapshots do not
// double-count a long-running cell.
func TestCellRecorderBindLive(t *testing.T) {
	a := New(Options{Budgets: testBudgets()})
	live := telemetry.NewLive(256)
	var counters telemetry.Counters
	live.BindCounters(&counters)
	counters.Samples.Store(500)
	live.Event(telemetry.EvTriggerFire, 100, 0, 1)
	live.Event(telemetry.EvJamRFOn, 108, 0, 1)
	a.Cell("jamlab").BindLive(live)

	s1 := a.Snapshot()
	s2 := a.Snapshot()
	for _, s := range []*Snapshot{s1, s2} {
		c := s.CellByName("jamlab")
		if c.Counters.Samples != 500 {
			t.Fatalf("bound cell samples = %d, want 500 (no double count)", c.Counters.Samples)
		}
		if c.TriggerToRF.Count != 1 {
			t.Fatalf("bound cell tinit count = %d, want 1", c.TriggerToRF.Count)
		}
	}

	// Hot-path counters on the CellRecorder itself add on top of the
	// bound recorder.
	a.Cell("jamlab").Counters.Samples.Add(10)
	if c := a.Snapshot().CellByName("jamlab"); c.Counters.Samples != 510 {
		t.Fatalf("samples = %d, want 510", c.Counters.Samples)
	}

	// The recorder's alert and dump tallies reach the cell and fleet
	// rollups.
	live.Event(telemetry.EvAnomalyAlert, 200, 0, 0)
	live.Event(telemetry.EvFlightDump, 300, 0, 0)
	for _, r := range a.RollupSource()(0) {
		if r.Alerts != 1 || r.Dumps != 1 {
			t.Errorf("%s rollup alerts/dumps = %d/%d, want 1/1", r.Cell, r.Alerts, r.Dumps)
		}
	}
}

// TestCellConcurrentRegistration: concurrent Cell() calls on the same and
// different names are safe and never lose increments.
func TestCellConcurrentRegistration(t *testing.T) {
	a := New(Options{Budgets: testBudgets()})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := a.Cell(fmt.Sprintf("cell-%d", i%32))
				c.Counters.Samples.Add(1)
			}
		}(w)
	}
	wg.Wait()
	s := a.Snapshot()
	if len(s.Cells) != 32 {
		t.Fatalf("cells = %d, want 32", len(s.Cells))
	}
	if s.Total.Counters.Samples != 8*500 {
		t.Fatalf("total samples = %d, want %d", s.Total.Counters.Samples, 8*500)
	}
}

// TestRollupSource: the SSE adapter emits fleet + per-cell rollups with
// the overflow bucket past the label budget.
func TestRollupSource(t *testing.T) {
	a := New(Options{Budgets: testBudgets(), LabelBudget: 2})
	feedCell(a, "cell-0", 4, 90, 0)
	feedCell(a, "cell-1", 4, 200, 0)
	feedCell(a, "cell-2", 4, 150, 0)
	feedCell(a, "cell-3", 4, 100, 0)

	rollups := a.RollupSource()(7)
	// fleet + 2 labelled + 1 overflow.
	if len(rollups) != 4 {
		t.Fatalf("got %d rollups: %+v", len(rollups), rollups)
	}
	if rollups[0].Cell != "fleet" || rollups[0].Seq != 7 {
		t.Fatalf("first rollup = %+v", rollups[0])
	}
	if rollups[1].Cell != "cell-1" || rollups[2].Cell != "cell-2" {
		t.Fatalf("labelled rollups not worst-first: %s, %s", rollups[1].Cell, rollups[2].Cell)
	}
	last := rollups[3]
	if last.Cell != OverflowCell {
		t.Fatalf("last rollup cell = %q, want %q", last.Cell, OverflowCell)
	}
	if last.Counters.JamTriggers != 8 { // cell-0 + cell-3 folded
		t.Fatalf("overflow jam triggers = %d, want 8", last.Counters.JamTriggers)
	}
}
