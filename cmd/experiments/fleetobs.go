package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// runFleetObs runs the fleet observability drill: N concurrent cells
// through the worker pool, merged by the fleet aggregation plane, then
// three acceptance checks — bit-for-bit reconciliation of every cell
// against its own recorder, zero journal drops fleet-wide, and an
// OpenMetrics scrape inside the cell-label cardinality budget. The JSONL
// fleet ledger (byte-stable per seed, modulo wall_ms) goes to ledgerPath
// when non-empty.
func runFleetObs(cells, framesPerCell int, seed int64, ledgerPath string) error {
	fmt.Printf("fleet observability drill: %d cells × %d frames, seed %d\n",
		cells, framesPerCell, seed)
	start := time.Now()
	res, err := experiments.RunFleetObs(experiments.FleetObsConfig{
		Cells:         cells,
		FramesPerCell: framesPerCell,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if err := res.Reconcile(); err != nil {
		return err
	}
	fmt.Printf("  reconciled: fleet figures match all %d cell recorders bit-for-bit\n",
		len(res.Outcomes))
	s := res.Snap
	if s.Total.Dropped != 0 {
		return fmt.Errorf("fleetobs: %d journal events dropped fleet-wide", s.Total.Dropped)
	}

	var scrape bytes.Buffer
	if err := s.WriteOpenMetrics(&scrape, res.Agg.LabelBudget()); err != nil {
		return err
	}
	labelled, err := fleet.LintMetrics(bytes.NewReader(scrape.Bytes()), res.Agg.LabelBudget())
	if err != nil {
		return fmt.Errorf("fleetobs: scrape lint: %w", err)
	}
	fmt.Printf("  scrape: %d bytes, %d labelled cells (budget %d), lint clean\n",
		scrape.Len(), labelled, res.Agg.LabelBudget())

	fmt.Printf("  cells %d   SLO pass %d   fail %d   journal drops %d\n",
		len(s.Cells), s.SLOPassing, s.SLOFailing, s.Total.Dropped)
	fmt.Printf("  fleet frames %d, jammed %d (FN rate %.4f)\n",
		s.Total.Frames, s.Total.Jammed, s.Total.FNRate)
	fmt.Printf("  fleet reaction p50 %v  p99 %v   trigger→RF p99 %v\n",
		telemetry.CyclesToDuration(s.Total.Reaction.P50),
		telemetry.CyclesToDuration(s.Total.Reaction.P99),
		telemetry.CyclesToDuration(s.Total.TriggerToRF.P99))
	printRanks("worst reaction p99 (cycles)", s.WorstReactionP99)
	printRanks("worst FN rate", s.WorstFNRate)
	printRanks("worst journal drops", s.WorstDropped)

	if ledgerPath != "" {
		meta := fleet.LedgerMeta{
			Scenario: "fleetobs",
			Seed:     seed,
			WallMS:   float64(wall.Microseconds()) / 1000,
		}
		err := writeFile(ledgerPath, func(w io.Writer) error { return fleet.WriteLedger(w, s, meta) })
		if err != nil {
			return err
		}
		fmt.Printf("  wrote %d ledger rows to %s\n", len(s.Cells)+1, ledgerPath)
	}
	fmt.Printf("  %.0f cells/s through the aggregation plane\n",
		float64(cells)/wall.Seconds())
	return nil
}

func printRanks(label string, ranks []fleet.Rank) {
	if len(ranks) == 0 {
		return
	}
	fmt.Printf("  %s:\n", label)
	for _, r := range ranks {
		fmt.Printf("    %-12s %g\n", r.Cell, r.Value)
	}
}
