package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// The telemetry-overhead gate (`make overhead`, part of `make ci`): the
// live recorder plus the fleet plane may cost at most overheadBoundPct of
// the block datapath's throughput, as the median of overheadPairs
// interleaved bare/instrumented windows of overheadWindow each.
const (
	overheadPairs    = 5
	overheadWindow   = 300 * time.Millisecond
	overheadBoundPct = 3.0
)

// quietSpanInput is the gate's 4096-sample block: a small ramp neither armed
// detector fires on, so the gate times the recorder on the quiet-span path,
// not the per-sample steps of an engagement.
func quietSpanInput() []complex128 {
	buf := make([]complex128, 4096)
	for i := range buf {
		buf[i] = complex(float64(i%7)*0.01, 0)
	}
	return buf
}

// benchCore arms the detectors and trigger of BenchmarkCoreDatapath/block
// behind a radio front end.
func benchCore() (*core.Core, error) {
	r := radio.New()
	h := host.New(r.Core())
	if err := h.Arm(host.Detector{
		Template: host.WiFiShortTemplate(), FATargetPerSec: 0.1, EnergyThresholdDB: host.EnergyRiseDB,
	}); err != nil {
		return nil, err
	}
	r.Start()
	return r.Core(), nil
}

// overheadSection measures the telemetry overhead of the instrumented block
// datapath against a bare core: the same block workload on a bare core and
// on one with the live recorder attached, bound to a fleet cell, with a
// stream broadcaster snapshotting the fleet concurrently, as jamlab's
// /stream does — the full observability tax. It returns the overhead of
// each pair in measurement order.
//
// Each window alternates the two cores block by block and compares their
// summed times, so load from other tenants of the host lands on both sides
// alike; the median of the pairs discards a window that a preemption hit on
// one side only. The broadcaster runs through the bare blocks too: on one
// core its (small) cost is split between the sides.
func overheadSection(pairs int, window time.Duration) ([]float64, error) {
	buf := quietSpanInput()
	tx := make([]complex128, len(buf))
	bare, err := benchCore()
	if err != nil {
		return nil, err
	}
	inst, err := benchCore()
	if err != nil {
		return nil, err
	}
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	inst.SetRecorder(live)
	agg := fleet.New(fleet.Options{})
	agg.Cell("bench").BindLive(live)
	bcast := telemetry.NewBroadcaster(50*time.Millisecond, agg.RollupSource())

	bare.ProcessBlock(buf, tx)
	inst.ProcessBlock(buf, tx)
	bcast.Start()
	defer bcast.Stop()
	pcts := make([]float64, pairs)
	for i := range pcts {
		var bareT, instT time.Duration
		for start := time.Now(); time.Since(start) < window; {
			t0 := time.Now()
			bare.ProcessBlock(buf, tx)
			t1 := time.Now()
			inst.ProcessBlock(buf, tx)
			bareT += t1.Sub(t0)
			instT += time.Since(t1)
		}
		pcts[i] = overheadPct(1/bareT.Seconds(), 1/instT.Seconds())
	}
	return pcts, nil
}

// overheadPct is the throughput an instrumented run loses against a bare
// one, in percent of the bare rate. It is signed: a negative value means the
// instrumented run came out faster, which is measurement noise and is
// reported as such. A zero bare rate has nothing to compare against and
// yields 0.
func overheadPct(bare, instrumented float64) float64 {
	if bare <= 0 {
		return 0
	}
	return (1 - instrumented/bare) * 100
}

// runOverhead prints every pair and the median, and fails when the median
// exceeds the bound.
func runOverhead() error {
	fmt.Printf("telemetry overhead of the block datapath: %d pairs of %v windows\n",
		overheadPairs, overheadWindow)
	pcts, err := overheadSection(overheadPairs, overheadWindow)
	if err != nil {
		return err
	}
	for i, p := range pcts {
		fmt.Printf("  pair %d  %+.2f%%\n", i+1, p)
	}
	sort.Float64s(pcts)
	med := pcts[len(pcts)/2]
	fmt.Printf("  median %+.2f%% (bound <= %g%%)\n", med, overheadBoundPct)
	if med > overheadBoundPct {
		return fmt.Errorf("telemetry overhead %.2f%% exceeds %g%%", med, overheadBoundPct)
	}
	return nil
}
