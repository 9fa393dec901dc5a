package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// The experiment harness fans independent work items — detection streams
// (stream.go), sweep attenuations, ablation rows — across a bounded worker
// pool. Every item builds its own front end and cores and derives its RNG
// seeds purely from the experiment config and the item's own parameters
// (e.g. cfg.Seed+int64(snr*100)), so the results are bit-identical to a
// sequential run at any pool width; only wall-clock time changes.

var (
	parMu       sync.RWMutex
	parallelism = runtime.GOMAXPROCS(0)
)

// SetParallelism sets the worker fan-out of the experiment harness. Width 1
// runs every experiment strictly sequentially; values below 1 restore the
// default of GOMAXPROCS.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parMu.Lock()
	parallelism = n
	parMu.Unlock()
}

// Parallelism returns the current worker fan-out.
func Parallelism() int {
	parMu.RLock()
	defer parMu.RUnlock()
	return parallelism
}

// fleetSink, when installed, receives per-cell telemetry from every
// instrumented sweep item the worker pool runs: an item that names its
// cell (e.g. ReactionConfig.Cell) absorbs its recorder snapshot and
// outcome tallies into the fleet aggregation plane on completion. The
// sink is process-wide — the pool is — and items report concurrently from
// every worker, which the aggregator's sharded cells are built for.
var fleetSink atomic.Pointer[fleet.Aggregator]

// SetFleetSink installs (or, with nil, removes) the fleet aggregator that
// collects per-cell telemetry from instrumented sweep items.
func SetFleetSink(a *fleet.Aggregator) { fleetSink.Store(a) }

// FleetSink returns the installed fleet aggregator (nil when none).
func FleetSink() *fleet.Aggregator { return fleetSink.Load() }

// reportCell absorbs one finished item's telemetry into the named fleet
// cell when a sink is installed. frames/jammed carry the item's
// ground-truth detection outcome for the FN-rate SLO.
func reportCell(cell string, snap telemetry.Snapshot, frames, jammed uint64) {
	a := FleetSink()
	if a == nil || cell == "" {
		return
	}
	c := a.Cell(cell)
	c.Absorb(snap)
	c.AddOutcome(frames, jammed)
}

// forEach runs fn(i) for every i in [0, n) across the worker pool and
// returns the error of the lowest failing index (nil when all succeed).
// fn must write its result into its own index of a pre-sized output slice;
// with that discipline the assembled output is identical at any pool width.
func forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
