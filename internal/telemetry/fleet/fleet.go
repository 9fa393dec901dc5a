// Package fleet is the multi-cell aggregation layer over internal/telemetry:
// the substrate a fleet-scale engagement service stands on. Each testbed
// cell (one radio/core/jammer stack) owns a cheap CellRecorder — the
// existing zero-alloc atomic counter block plus the log-linear latency
// histograms — and an Aggregator snapshots every cell on demand (each
// scrape, each stream tick) and merges the shards into fleet rollups:
// summed counters, histogram merges that are exact under any merge order,
// per-cell SLO verdicts via the internal/telemetry/slo budget machinery,
// and top-K worst-cell rankings.
//
// The hot path stays lock-free: cells increment their own atomic counters
// and the per-cell mutex only guards edge-rate state (histograms, outcome
// tallies), exactly like the single-cell Live recorder. Registration and
// lookup are sharded so thousands of cells do not contend on one map lock.
//
// The aggregated state is exported three ways: a cardinality-bounded
// OpenMetrics scrape (expo.go), a JSONL fleet ledger (ledger.go), and SSE
// rollups for the /stream surface (rollup.go).
package fleet

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

// numShards spreads cell registration across independent locks. Power of
// two so the hash folds with a mask.
const numShards = 64

// CellRecorder is one cell's telemetry state inside the fleet plane. The
// counter block is the same atomic Counters the datapath increments
// directly — a cell may hand &CellRecorder.Counters to its core, making
// hot-path increments lock-free — while histograms and outcome tallies sit
// behind a mutex touched only at edge/ingest rate.
type CellRecorder struct {
	name string

	// Counters is the cell's datapath counter block (atomic; lock-free).
	Counters telemetry.Counters

	mu          sync.Mutex
	live        *telemetry.Live // bound live recorder (pull on snapshot)
	reaction    telemetry.Histogram
	triggerToRF telemetry.Histogram
	dropped     uint64
	engagements uint64
	frames      uint64
	jammed      uint64
}

// Name returns the cell's registered name.
func (c *CellRecorder) Name() string { return c.name }

// BindLive attaches a live single-cell recorder. On every aggregator
// snapshot the live recorder's own snapshot is folded in on top of the
// accumulated state, so a long-running cell (jamlab) exports through the
// fleet plane without double counting: bound state replaces, it does not
// accumulate.
func (c *CellRecorder) BindLive(l *telemetry.Live) {
	c.mu.Lock()
	c.live = l
	c.mu.Unlock()
}

// Absorb folds a finished run's telemetry snapshot into the cell:
// counters add atomically, histograms merge exactly (bucket boundaries are
// shared), journal drops and engagements accumulate. Safe to call while
// the aggregator snapshots concurrently.
func (c *CellRecorder) Absorb(s telemetry.Snapshot) {
	c.Counters.Add(s.Counters)
	c.mu.Lock()
	c.reaction.MergeSnapshot(s.Histogram(telemetry.HistReaction))
	c.triggerToRF.MergeSnapshot(s.Histogram(telemetry.HistTriggerToRF))
	c.dropped += s.Dropped
	c.engagements += s.Engagements
	c.mu.Unlock()
}

// AddOutcome records ground-truth detection outcomes: frames offered to the
// cell and frames that drew a jamming response. The difference feeds the
// per-cell false-negative rate the SLO budget and worst-cell ranking use.
func (c *CellRecorder) AddOutcome(frames, jammed uint64) {
	c.mu.Lock()
	c.frames += frames
	c.jammed += jammed
	c.mu.Unlock()
}

// snapshot captures the cell under its own lock. A bound live recorder is
// snapshotted outside c.mu first (Live has its own mutex; taking them in
// this fixed order, never nested the other way, avoids ordering hazards).
func (c *CellRecorder) snapshot() CellSnapshot {
	var liveSnap telemetry.Snapshot
	c.mu.Lock()
	l := c.live
	c.mu.Unlock()
	hasLive := l != nil
	var alerts, dumps uint64
	if hasLive {
		liveSnap = l.Snapshot()
		alerts = l.EventCount(telemetry.EvAnomalyAlert)
		dumps = l.EventCount(telemetry.EvFlightDump)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var reaction, triggerToRF telemetry.Histogram
	reaction.MergeSnapshot(c.reaction.Snapshot(""))
	triggerToRF.MergeSnapshot(c.triggerToRF.Snapshot(""))
	s := CellSnapshot{
		Cell:        c.name,
		Counters:    c.Counters.Snapshot(),
		Dropped:     c.dropped,
		Engagements: c.engagements,
		Frames:      c.frames,
		Jammed:      c.jammed,
	}
	if hasLive {
		s.Counters.Add(liveSnap.Counters)
		reaction.MergeSnapshot(liveSnap.Histogram(telemetry.HistReaction))
		triggerToRF.MergeSnapshot(liveSnap.Histogram(telemetry.HistTriggerToRF))
		s.Dropped += liveSnap.Dropped
		s.Engagements += liveSnap.Engagements
		s.Alerts, s.Dumps = alerts, dumps
	}
	s.Reaction = reaction.Snapshot(telemetry.HistReaction)
	s.TriggerToRF = triggerToRF.Snapshot(telemetry.HistTriggerToRF)
	return s
}

// Options configures an Aggregator.
type Options struct {
	// Budgets are the per-cell SLO budgets (DefaultBudgets when nil).
	Budgets []slo.Budget
	// TopK bounds the worst-cell rankings (default 8).
	TopK int
	// LabelBudget bounds how many cells get their own `cell` label in the
	// OpenMetrics exposition; the rest collapse into cell="other"
	// (default 32).
	LabelBudget int
	// DroppedClients, when set, reports the SSE broadcaster's dropped
	// slow-client count into the exposition.
	DroppedClients func() uint64
}

// MetricFNRate is the per-cell false-negative-rate metric evaluated against
// the fleet SLO budgets: (frames - jammed) / frames from AddOutcome ground
// truth.
const MetricFNRate = "fn_rate"

// DefaultBudgets returns the fleet per-cell budget set: the paper's
// reaction and turnaround bounds (with the front-end group-delay allowance,
// as in slo.DefaultBudgets), zero journal drops, and a 1% false-negative
// ceiling. Late-jam and false-alarm budgets need the per-packet ledger and
// are evaluated by the single-cell SLO gate instead.
func DefaultBudgets(frontEndCycles uint64) []slo.Budget {
	all := slo.DefaultBudgets(frontEndCycles)
	var out []slo.Budget
	for _, b := range all {
		switch b.Metric {
		case slo.MetricReactionP99, slo.MetricTriggerToRFP99, slo.MetricJournalDropped:
			out = append(out, b)
		}
	}
	return append(out, slo.Budget{
		Metric:      MetricFNRate,
		Max:         0.01,
		Description: "undetected frames, of frames offered to the cell",
	})
}

// shard is one registration partition.
type shard struct {
	mu    sync.RWMutex
	cells map[string]*CellRecorder
}

// Aggregator owns the fleet's cells and produces merged snapshots. Cell
// registration and lookup are sharded; Snapshot walks all shards.
type Aggregator struct {
	opts   Options
	shards [numShards]shard
}

// New returns an aggregator with the given options.
func New(opts Options) *Aggregator {
	if opts.TopK <= 0 {
		opts.TopK = 8
	}
	if opts.LabelBudget <= 0 {
		opts.LabelBudget = 32
	}
	a := &Aggregator{opts: opts}
	for i := range a.shards {
		a.shards[i].cells = make(map[string]*CellRecorder)
	}
	return a
}

// LabelBudget returns the configured cell-label cardinality budget.
func (a *Aggregator) LabelBudget() int { return a.opts.LabelBudget }

func shardIndex(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() & (numShards - 1))
}

// Cell returns the named cell's recorder, registering it on first use.
func (a *Aggregator) Cell(name string) *CellRecorder {
	sh := &a.shards[shardIndex(name)]
	sh.mu.RLock()
	c := sh.cells[name]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c = sh.cells[name]; c == nil {
		c = &CellRecorder{name: name}
		sh.cells[name] = c
	}
	return c
}

// Snapshot captures every cell, evaluates the SLO budgets per cell, merges
// the fleet totals and computes the worst-cell rankings. Cells are sorted
// by name, so the result is deterministic for a given fleet state no matter
// which shard or goroutine a cell registered from.
func (a *Aggregator) Snapshot() *Snapshot {
	var cells []CellSnapshot
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		recs := make([]*CellRecorder, 0, len(sh.cells))
		for _, c := range sh.cells {
			recs = append(recs, c)
		}
		sh.mu.RUnlock()
		for _, c := range recs {
			cells = append(cells, c.snapshot())
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Cell < cells[j].Cell })

	s := &Snapshot{Cells: cells}
	budgets := a.opts.Budgets
	for i := range s.Cells {
		c := &s.Cells[i]
		c.FNRate = fnRate(c.Frames, c.Jammed)
		c.SLO = slo.Evaluate(budgets, c.Metrics())
		if c.SLO.Pass {
			s.SLOPassing++
		} else {
			s.SLOFailing++
		}
	}
	s.mergeTotals()
	s.rank(a.opts.TopK)
	if a.opts.DroppedClients != nil {
		s.StreamDroppedClients = a.opts.DroppedClients()
	}
	return s
}

func fnRate(frames, jammed uint64) float64 {
	if frames == 0 {
		return 0
	}
	missed := uint64(0)
	if jammed < frames {
		missed = frames - jammed
	}
	return float64(missed) / float64(frames)
}
