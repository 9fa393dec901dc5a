package fleet

import (
	"sort"

	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

// CellSnapshot is one cell's point-in-time state inside a fleet snapshot:
// the counter block, the two headline latency histograms, journal health,
// detection-outcome ground truth, and the cell's SLO verdict.
type CellSnapshot struct {
	Cell        string
	Counters    telemetry.CounterSnapshot
	Reaction    telemetry.HistogramSnapshot
	TriggerToRF telemetry.HistogramSnapshot
	Dropped     uint64
	Engagements uint64
	// Alerts and Dumps count the anomaly alerts and flight-recorder dumps
	// journaled by a bound live recorder (zero for absorbed cells). Only
	// the stream rollups carry them.
	Alerts uint64
	Dumps  uint64
	// Frames and Jammed are the AddOutcome ground truth; FNRate is their
	// miss rate, computed at snapshot time.
	Frames uint64
	Jammed uint64
	FNRate float64
	// SLO is the cell's verdict against the aggregator's budget set.
	SLO slo.Report
}

// Metrics returns the cell's metric map for SLO evaluation — the same
// joining convention the single-cell gate uses, so a fleet verdict and a
// verdict computed from the cell's own recorder agree bit for bit.
func (c *CellSnapshot) Metrics() map[string]float64 {
	return map[string]float64{
		slo.MetricReactionP99:    float64(c.Reaction.P99),
		slo.MetricTriggerToRFP99: float64(c.TriggerToRF.P99),
		slo.MetricJournalDropped: float64(c.Dropped),
		MetricFNRate:             fnRate(c.Frames, c.Jammed),
	}
}

// Rank is one entry of a worst-cell ranking.
type Rank struct {
	Cell  string
	Value float64
}

// Snapshot is one merged view of the whole fleet.
type Snapshot struct {
	// Cells holds every cell sorted by name.
	Cells []CellSnapshot
	// Total is the fleet-wide merge: counters summed, histograms merged
	// exactly, outcome tallies added. Its SLO field is left zero — budgets
	// are per-cell objectives.
	Total CellSnapshot
	// SLOPassing and SLOFailing count cells by verdict.
	SLOPassing int
	SLOFailing int
	// Worst-cell rankings, descending, ties broken by cell name. Cells
	// with a zero value are omitted, so an all-healthy fleet has empty
	// drop/FN rankings.
	WorstReactionP99 []Rank
	WorstFNRate      []Rank
	WorstDropped     []Rank
	// StreamDroppedClients mirrors the SSE broadcaster's slow-client drop
	// counter when the aggregator is wired to one.
	StreamDroppedClients uint64
}

// CellByName returns the named cell snapshot (nil when absent).
func (s *Snapshot) CellByName(name string) *CellSnapshot {
	i := sort.Search(len(s.Cells), func(i int) bool { return s.Cells[i].Cell >= name })
	if i < len(s.Cells) && s.Cells[i].Cell == name {
		return &s.Cells[i]
	}
	return nil
}

// mergeTotals folds every cell into Total. Histogram merges go through the
// exact snapshot-merge path, so the fleet-wide quantiles are identical to a
// histogram that had observed every cell's stream directly, in any order.
func (s *Snapshot) mergeTotals() {
	var reaction, triggerToRF telemetry.Histogram
	t := CellSnapshot{Cell: "fleet"}
	for i := range s.Cells {
		c := &s.Cells[i]
		t.Counters.Add(c.Counters)
		reaction.MergeSnapshot(c.Reaction)
		triggerToRF.MergeSnapshot(c.TriggerToRF)
		t.Dropped += c.Dropped
		t.Engagements += c.Engagements
		t.Alerts += c.Alerts
		t.Dumps += c.Dumps
		t.Frames += c.Frames
		t.Jammed += c.Jammed
	}
	t.FNRate = fnRate(t.Frames, t.Jammed)
	t.Reaction = reaction.Snapshot(telemetry.HistReaction)
	t.TriggerToRF = triggerToRF.Snapshot(telemetry.HistTriggerToRF)
	s.Total = t
}

// rank computes the top-K worst-cell rankings.
func (s *Snapshot) rank(k int) {
	s.WorstReactionP99 = topK(s.Cells, k, func(c *CellSnapshot) float64 {
		return float64(c.Reaction.P99)
	})
	s.WorstFNRate = topK(s.Cells, k, func(c *CellSnapshot) float64 {
		return c.FNRate
	})
	s.WorstDropped = topK(s.Cells, k, func(c *CellSnapshot) float64 {
		return float64(c.Dropped)
	})
}

// topK returns the k highest-valued cells, descending, ties broken by name
// ascending so the ranking is deterministic. Zero values are skipped.
func topK(cells []CellSnapshot, k int, metric func(*CellSnapshot) float64) []Rank {
	ranks := make([]Rank, 0, len(cells))
	for i := range cells {
		if v := metric(&cells[i]); v > 0 {
			ranks = append(ranks, Rank{Cell: cells[i].Cell, Value: v})
		}
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].Value != ranks[j].Value {
			return ranks[i].Value > ranks[j].Value
		}
		return ranks[i].Cell < ranks[j].Cell
	})
	if len(ranks) > k {
		ranks = ranks[:k]
	}
	return ranks
}
