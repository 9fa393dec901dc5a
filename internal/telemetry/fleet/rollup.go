package fleet

import "repro/internal/telemetry"

// RollupSource adapts the aggregator to the SSE /stream surface: every
// tick emits one telemetry.Rollup per cell (worst reaction p99 first,
// bounded by the label budget like the scrape, with the remainder folded
// into the "other" rollup) plus a fleet-wide rollup under the cell name
// "fleet". The per-tick snapshot is shared by all rollups of the tick.
func (a *Aggregator) RollupSource() telemetry.RollupSource {
	return func(seq uint64) []telemetry.Rollup {
		s := a.Snapshot()
		out := make([]telemetry.Rollup, 0, len(s.Cells)+2)
		out = append(out, cellRollup(seq, &s.Total))

		labelled, overflow := s.labelled(a.opts.LabelBudget)
		for i := range labelled {
			if c := s.CellByName(labelled[i].label); c != nil {
				out = append(out, cellRollup(seq, c))
			}
		}
		if overflow != nil {
			out = append(out, telemetry.Rollup{
				Seq:  seq,
				Cell: OverflowCell,
				Counters: telemetry.CounterSnapshot{
					Samples:     overflow.samples,
					JamTriggers: overflow.jamTriggers,
				},
				Dropped:     overflow.dropped,
				Engagements: overflow.engagements,
				Histograms: []telemetry.HistRollup{
					{Name: telemetry.HistReaction, P99: overflow.reactionP99},
					{Name: telemetry.HistTriggerToRF, P99: overflow.tinitP99},
				},
			})
		}
		return out
	}
}

func cellRollup(seq uint64, c *CellSnapshot) telemetry.Rollup {
	return telemetry.Rollup{
		Seq:         seq,
		Cell:        c.Cell,
		Counters:    c.Counters,
		Alerts:      c.Alerts,
		Dumps:       c.Dumps,
		Dropped:     c.Dropped,
		Engagements: c.Engagements,
		Histograms:  []telemetry.HistRollup{histRollup(c.Reaction), histRollup(c.TriggerToRF)},
	}
}

func histRollup(h telemetry.HistogramSnapshot) telemetry.HistRollup {
	return telemetry.HistRollup{Name: h.Name, Count: h.Count, P50: h.P50, P99: h.P99, Max: h.Max}
}
