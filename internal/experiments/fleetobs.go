package experiments

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/telemetry/slo"
)

// The fleetobs scenario is the fleet-scale observability drill: N
// independent testbed cells (each its own radio/core/jammer stack) run a
// seeded reaction-latency engagement across the worker pool, every cell's
// telemetry is absorbed into the fleet aggregation plane, and the merged
// snapshot is checked three ways — per-cell SLO verdicts must reconcile
// bit-for-bit with each cell's own recorder, the OpenMetrics scrape must
// stay inside the cell-label cardinality budget, and the JSONL fleet
// ledger must be byte-stable per seed (modulo the wall-clock meta field).

// FleetObsConfig sizes the fleet drill.
type FleetObsConfig struct {
	// Cells is the number of concurrent cells (default 256).
	Cells int
	// FramesPerCell is the per-cell engagement count (default 6).
	FramesPerCell int
	// Seed is the master seed; each cell derives its own.
	Seed int64
}

// FleetCellOutcome retains one cell's own recorder snapshot — the ground
// truth the fleet plane's figures are reconciled against.
type FleetCellOutcome struct {
	Name     string
	Frames   int
	Snapshot telemetry.Snapshot
}

// FleetObsResult is the fleet drill's outcome.
type FleetObsResult struct {
	Agg      *fleet.Aggregator
	Snap     *fleet.Snapshot
	Budgets  []slo.Budget
	Outcomes []FleetCellOutcome
}

// fleetCellName names cell i; fixed width so lexicographic cell order
// equals numeric order in ledgers and scrapes.
func fleetCellName(i int) string { return fmt.Sprintf("cell-%04d", i) }

// fleetCellSNR spreads the fleet across a deterministic SNR plan: most
// cells sit comfortably above the 10 dB energy threshold (SNR 11–14 dB by
// index), and every 16th cell runs marginal at 10.3 dB — the cells a
// worst-case ranking should surface.
func fleetCellSNR(i int) float64 {
	if i%16 == 7 {
		return 10.3
	}
	return 11 + float64(i%4)
}

// RunFleetObs runs the fleet observability drill. Cell results are
// bit-identical at any worker-pool width: each cell's seeds derive only
// from the config and its own index, and the aggregator's merge is order
// invariant.
func RunFleetObs(cfg FleetObsConfig) (*FleetObsResult, error) {
	if cfg.Cells <= 0 {
		cfg.Cells = 256
	}
	if cfg.FramesPerCell <= 0 {
		cfg.FramesPerCell = 6
	}
	budgets := fleet.DefaultBudgets(WiFiFrontEndGroupDelayCycles())
	agg := fleet.New(fleet.Options{Budgets: budgets})
	prev := FleetSink()
	SetFleetSink(agg)
	defer SetFleetSink(prev)

	outcomes := make([]FleetCellOutcome, cfg.Cells)
	err := forEach(cfg.Cells, func(i int) error {
		name := fleetCellName(i)
		res, err := MeasureReactionLatency(ReactionConfig{
			Frames: cfg.FramesPerCell,
			SNRdB:  fleetCellSNR(i),
			Seed:   cfg.Seed + int64(i)*9973,
			Cell:   name,
		})
		if err != nil {
			return err
		}
		outcomes[i] = FleetCellOutcome{
			Name:     name,
			Frames:   cfg.FramesPerCell,
			Snapshot: res.Snapshot,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FleetObsResult{
		Agg:      agg,
		Snap:     agg.Snapshot(),
		Budgets:  budgets,
		Outcomes: outcomes,
	}, nil
}

// Reconcile verifies the fleet plane against every cell's own recorder:
// counters, histogram statistics and buckets, journal health, outcome
// tallies, and the SLO verdict must all match bit for bit. Any divergence
// means the aggregation pipeline invented or lost telemetry.
func (r *FleetObsResult) Reconcile() error {
	for _, o := range r.Outcomes {
		c := r.Snap.CellByName(o.Name)
		if c == nil {
			return fmt.Errorf("fleetobs: cell %s missing from fleet snapshot", o.Name)
		}
		if c.Counters != o.Snapshot.Counters {
			return fmt.Errorf("fleetobs: %s counters diverge: fleet %+v, own %+v",
				o.Name, c.Counters, o.Snapshot.Counters)
		}
		if err := histsEqual(c.Reaction, o.Snapshot.Histogram(telemetry.HistReaction)); err != nil {
			return fmt.Errorf("fleetobs: %s reaction histogram: %w", o.Name, err)
		}
		if err := histsEqual(c.TriggerToRF, o.Snapshot.Histogram(telemetry.HistTriggerToRF)); err != nil {
			return fmt.Errorf("fleetobs: %s trigger→RF histogram: %w", o.Name, err)
		}
		if c.Dropped != o.Snapshot.Dropped {
			return fmt.Errorf("fleetobs: %s dropped %d, own %d", o.Name, c.Dropped, o.Snapshot.Dropped)
		}
		if c.Engagements != o.Snapshot.Engagements {
			return fmt.Errorf("fleetobs: %s engagements %d, own %d",
				o.Name, c.Engagements, o.Snapshot.Engagements)
		}
		if c.Frames != uint64(o.Frames) || c.Jammed != o.Snapshot.Counters.JamTriggers {
			return fmt.Errorf("fleetobs: %s outcome %d/%d, own %d/%d", o.Name,
				c.Jammed, c.Frames, o.Snapshot.Counters.JamTriggers, uint64(o.Frames))
		}
		// The cell's SLO verdict recomputed from its own recorder must be
		// check-for-check identical with the fleet's.
		own := slo.Evaluate(r.Budgets, c.Metrics())
		if own.Pass != c.SLO.Pass || len(own.Checks) != len(c.SLO.Checks) {
			return fmt.Errorf("fleetobs: %s SLO verdict diverges", o.Name)
		}
		for j := range own.Checks {
			if own.Checks[j] != c.SLO.Checks[j] {
				return fmt.Errorf("fleetobs: %s SLO check %s diverges: %+v vs %+v",
					o.Name, own.Checks[j].Budget.Metric, own.Checks[j], c.SLO.Checks[j])
			}
		}
	}
	return nil
}

func histsEqual(a, b telemetry.HistogramSnapshot) error {
	if a.Count != b.Count || a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max ||
		a.P50 != b.P50 || a.P90 != b.P90 || a.P99 != b.P99 {
		return fmt.Errorf("stats diverge: fleet %+v, own %+v", a, b)
	}
	if len(a.Buckets) != len(b.Buckets) {
		return fmt.Errorf("bucket counts diverge: %d vs %d", len(a.Buckets), len(b.Buckets))
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return fmt.Errorf("bucket %d diverges: %v vs %v", i, a.Buckets[i], b.Buckets[i])
		}
	}
	return nil
}
