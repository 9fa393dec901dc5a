package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// bench-diff re-measures the current tree and judges it against a committed
// BENCH_*.json baseline with one gate table. It gates only what a single run
// on a single host can prove:
//
//   - every seeded figure in the baseline, exactly (full mode only): the
//     figures come from seeded experiments, so any difference — or a figure
//     the fresh run no longer produces — is a behaviour change, not noise;
//   - the ratio of two rates measured in the same run (block over scalar)
//     and the telemetry overhead, against fixed bounds.
//
// Absolute throughput is not compared with the baseline: the baseline was
// recorded on another host, often at another core count. Throughput across
// commits is judged by the bench/ module, which runs parent and change in
// calibrated pairs on one host.
//
// Full mode (default) measures 300 ms windows and re-runs the figure
// experiments; tolerant mode (-tolerant, used by `make ci`) measures 40 ms
// windows, skips the figures and loosens the bounds to absorb the short
// windows' noise.
const (
	fullWindow     = 300 * time.Millisecond
	tolerantWindow = 40 * time.Millisecond
)

// direction is the side of its bound a healthy value lies on.
type direction int

const (
	atLeast direction = iota
	atMost
	equal
)

func (d direction) String() string {
	switch d {
	case atLeast:
		return ">="
	case atMost:
		return "<="
	}
	return "=="
}

// holds reports whether got is on the healthy side of bound. NaN never
// holds, so a value that could not be measured fails its gate.
func (d direction) holds(got, bound float64) bool {
	switch d {
	case atLeast:
		return got >= bound
	case atMost:
		return got <= bound
	}
	return got == bound
}

// gate is one row of the bench-diff table: a value read from a report, the
// direction it must lie in, and its bound in full and in tolerant mode.
type gate struct {
	name      string
	unit      string
	value     func(*BenchReport) float64
	direction direction
	full      float64
	tolerant  float64
}

// gates is the table of same-run gates.
//
// block_over_scalar: the fused block datapath must never lose to the
// per-sample path. telemetry_overhead_pct: the live recorder plus fleet
// plane may cost at most 3% of block throughput.
func gates() []gate {
	return []gate{
		{"block_over_scalar", "x", func(r *BenchReport) float64 { return r.ThroughputMsps.BlockOverScalar }, atLeast, 1.0, 0.9},
		{"telemetry_overhead_pct", "%", func(r *BenchReport) float64 { return r.TelemetryOverheadPct }, atMost, 3, 15},
	}
}

// figureGates turns every figure of the baseline into an exact-equality
// gate. A figure missing from the fresh report reads as NaN and fails.
func figureGates(base *BenchReport) []gate {
	keys := make([]string, 0, len(base.Figures))
	for k := range base.Figures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]gate, len(keys))
	for i, k := range keys {
		bv := base.Figures[k]
		out[i] = gate{name: k, direction: equal, full: bv, tolerant: bv,
			value: func(r *BenchReport) float64 {
				if v, ok := r.Figures[k]; ok {
					return v
				}
				return math.NaN()
			}}
	}
	return out
}

// outcome is one gate evaluated against a fresh report.
type outcome struct {
	gate
	got, bound float64
	ok         bool
}

func (o outcome) String() string {
	status := "ok  "
	if !o.ok {
		status = "FAIL"
	}
	// Exact gates print every digit: a rounded figure could hide the change
	// that failed it.
	prec := 4
	if o.direction == equal {
		prec = -1
	}
	got := strconv.FormatFloat(o.got, 'g', prec, 64)
	if math.IsNaN(o.got) {
		got = "missing"
	}
	return fmt.Sprintf("  %s %-28s %18s %-2s (%s %s)", status, o.name, got, o.unit,
		o.direction, strconv.FormatFloat(o.bound, 'g', prec, 64))
}

// evaluate judges fresh against the gate table: the same-run gates always,
// and in full mode one exact gate per baseline figure.
func evaluate(base, fresh *BenchReport, tolerant bool) []outcome {
	table := gates()
	if !tolerant {
		table = append(table, figureGates(base)...)
	}
	out := make([]outcome, len(table))
	for i, g := range table {
		bound := g.full
		if tolerant {
			bound = g.tolerant
		}
		got := g.value(fresh)
		out[i] = outcome{gate: g, got: got, bound: bound, ok: g.direction.holds(got, bound)}
	}
	return out
}

// readBaseline reads and decodes a committed BENCH_*.json baseline.
func readBaseline(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench-diff: read baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("bench-diff: parse %s: %w", path, err)
	}
	return &base, nil
}

// runBenchDiff measures the current tree and diffs it against the baseline.
func runBenchDiff(baselinePath string, tolerant bool, frames, packets int) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	// Re-run at the budgets the baseline was recorded with, when it says.
	if base.Frames > 0 {
		frames = base.Frames
	}
	if base.Packets > 0 {
		packets = base.Packets
	}
	window, label := fullWindow, "full"
	if tolerant {
		window, label = tolerantWindow, "tolerant"
	}
	fmt.Printf("bench-diff (%s, %d GOMAXPROCS) against %s (recorded %s, %s)\n",
		label, runtime.GOMAXPROCS(0), baselinePath, base.Date, base.GoVersion)

	fresh := &BenchReport{Figures: map[string]float64{}}
	if err := measureAll(fresh, window, !tolerant && len(base.Figures) > 0, frames, packets); err != nil {
		return err
	}
	failures := 0
	for _, o := range evaluate(base, fresh, tolerant) {
		fmt.Println(o)
		if !o.ok {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("bench-diff: %d regression(s) against %s", failures, baselinePath)
	}
	fmt.Println("  no regressions")
	return nil
}
