package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry/fleet"
)

// fleet-drill: the same jammer core with the live telemetry recorder
// attached, plus fleet aggregation and export. One item is
// experiments.RunFleetObs over 256 cells × 6 frames, then Reconcile,
// WriteOpenMetrics and LintMetrics. It is the only workload that exercises
// internal/telemetry. Throughput counts cells.

const fleetLabelBudget = 32 // RunFleetObs's default, which the mirror repeats

type fleetRunner struct {
	seed          int64
	cells, frames int
}

func setupFleet(seed int64, smoke bool) (runner, error) {
	r := &fleetRunner{seed: seed, cells: 256, frames: 6}
	if smoke {
		r.cells = 128
	}
	return r, nil
}

func (r *fleetRunner) cycle() int { return 1 }

func (r *fleetRunner) sizes() map[string]any {
	return map[string]any{"cells": r.cells, "frames_per_cell": r.frames}
}

func (r *fleetRunner) config(k int) experiments.FleetObsConfig {
	return experiments.FleetObsConfig{Cells: r.cells, FramesPerCell: r.frames, Seed: itemSeed(1, r.seed, k)}
}

func (r *fleetRunner) run(k int) (itemResult, error) {
	cfg := r.config(k)
	t0 := time.Now()
	res, err := experiments.RunFleetObs(cfg)
	if err != nil {
		return itemResult{}, err
	}
	if err := res.Reconcile(); err != nil {
		return itemResult{}, err
	}
	var scrape bytes.Buffer
	if err := res.Snap.WriteOpenMetrics(&scrape, res.Agg.LabelBudget()); err != nil {
		return itemResult{}, err
	}
	labelled, err := fleet.LintMetrics(bytes.NewReader(scrape.Bytes()), res.Agg.LabelBudget())
	if err != nil {
		return itemResult{}, err
	}
	d := time.Since(t0)
	line, err := fleetLine(cfg.Seed, res.Snap, scrape.Bytes(), labelled)
	if err != nil {
		return itemResult{}, err
	}
	return itemResult{out: []string{line}, units: float64(cfg.Cells), lat: []time.Duration{d}}, nil
}

// traced replays RunFleetObs cell by cell on one goroutine with the same
// aggregator options, then the same checks and export.
func (r *fleetRunner) traced(k int, tr *tracer) ([]string, error) {
	cfg := r.config(k)
	budgets := fleet.DefaultBudgets(experiments.WiFiFrontEndGroupDelayCycles())
	agg := fleet.New(fleet.Options{Budgets: budgets, TopK: 8, LabelBudget: fleetLabelBudget})
	prev := experiments.FleetSink()
	experiments.SetFleetSink(agg)
	outcomes := make([]experiments.FleetCellOutcome, cfg.Cells)
	for i := range outcomes {
		name := fmt.Sprintf("cell-%04d", i)
		snr := 11 + float64(i%4)
		if i%16 == 7 {
			snr = 10.3
		}
		id := tr.begin("experiments.reaction")
		res, err := experiments.MeasureReactionLatency(experiments.ReactionConfig{
			Frames: cfg.FramesPerCell, SNRdB: snr, Seed: cfg.Seed + int64(i)*9973, Cell: name,
		})
		if err != nil {
			tr.end(id, 0)
			experiments.SetFleetSink(prev)
			return nil, err
		}
		tr.end(id, int(res.Snapshot.Counters.Samples))
		tr.count("core.jam_samples", float64(res.Snapshot.Counters.JamSamples))
		tr.count("core.samples", float64(res.Snapshot.Counters.Samples))
		outcomes[i] = experiments.FleetCellOutcome{Name: name, Frames: cfg.FramesPerCell, Snapshot: res.Snapshot}
	}
	experiments.SetFleetSink(prev)

	id := tr.begin("fleet.snapshot")
	snap := agg.Snapshot()
	samples := int(snap.Total.Counters.Samples)
	tr.end(id, samples)
	id = tr.begin("fleet.reconcile")
	err := (&experiments.FleetObsResult{Agg: agg, Snap: snap, Budgets: budgets, Outcomes: outcomes}).Reconcile()
	tr.end(id, samples)
	if err != nil {
		return nil, err
	}
	id = tr.begin("fleet.scrape")
	var scrape bytes.Buffer
	err = snap.WriteOpenMetrics(&scrape, agg.LabelBudget())
	labelled := 0
	if err == nil {
		labelled, err = fleet.LintMetrics(bytes.NewReader(scrape.Bytes()), agg.LabelBudget())
	}
	tr.end(id, samples)
	if err != nil {
		return nil, err
	}
	line, err := fleetLine(cfg.Seed, snap, scrape.Bytes(), labelled)
	if err != nil {
		return nil, err
	}
	return []string{line}, nil
}

// fleetLine digests a drill: headline totals, the scrape, and the JSONL
// ledger written without its wall-clock field.
func fleetLine(seed int64, s *fleet.Snapshot, scrape []byte, labelled int) (string, error) {
	if s.Total.Dropped != 0 {
		return "", fmt.Errorf("%d journal events dropped fleet-wide", s.Total.Dropped)
	}
	var ledger bytes.Buffer
	if err := fleet.WriteLedger(&ledger, s, fleet.LedgerMeta{Scenario: "fleetobs", Seed: seed}); err != nil {
		return "", err
	}
	return fmt.Sprintf("cells=%d slo_pass=%d slo_fail=%d frames=%d jammed=%d samples=%d labelled=%d scrape_sha256=%x ledger_sha256=%x",
		len(s.Cells), s.SLOPassing, s.SLOFailing, s.Total.Frames, s.Total.Jammed,
		s.Total.Counters.Samples, labelled, sha256.Sum256(scrape), sha256.Sum256(ledger.Bytes())), nil
}
