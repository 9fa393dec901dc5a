package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"time"
)

// A workload is one set of seeded inputs driven through the program's public
// entry points. Each is a closed loop: one caller issues the next item only
// after the previous one returned.
type workload struct {
	name string
	// unit names one throughput unit.
	unit string
	// setup generates the inputs for seed and builds the stacks; smoke
	// selects the small sizes used for warm-up and tests.
	setup func(seed int64, smoke bool) (runner, error)
}

// runner executes the items of one set-up workload. Items are numbered from
// 0 and each item's inputs derive only from the seed and its number. Items
// are kept short, a few hundred milliseconds at most, so that a run holds
// enough of them for its medians to settle.
type runner interface {
	// cycle is how many consecutive items make up the workload once:
	// items k and k+cycle do the same kind of work on different inputs.
	// The first cycle's outputs are what the golden file holds.
	cycle() int
	// run executes item k through the public entry points, timing each
	// call from outside.
	run(k int) (itemResult, error)
	// traced replays item k through the public calls of each layer with a
	// span around every call, and returns the same output lines run gives.
	// Items are replayed in order from 0.
	traced(k int, tr *tracer) ([]string, error)
	// sizes describes the per-item work, for the results file.
	sizes() map[string]any
}

// itemResult is one untraced item.
type itemResult struct {
	// out holds the item's seeded outputs, one line per figure point, pass
	// or drill; it is what the golden file and digests cover.
	out []string
	// units is the throughput work the item completed.
	units float64
	// lat holds the latency of each timed call group of the item.
	lat []time.Duration
}

var workloads = []workload{
	{name: "link-reactive", unit: "figure points", setup: setupLink},
	{name: "detect-sweep", unit: "frames", setup: setupDetect},
	{name: "stream-25msps", unit: "Msamples", setup: setupStream},
	{name: "fleet-drill", unit: "cells", setup: setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// itemSeed derives the experiment seed of item k at benchmark seed seed from
// the experiment's own default base. The strides keep the seeds of
// different items and benchmark seeds apart, including the per-cell and
// per-SNR offsets the experiments add, and keep every seed positive.
func itemSeed(base, seed int64, k int) int64 {
	const period = 1_000_003
	shift := ((seed-1)%period + period) % period
	return base + shift*1_000_000_007 + int64(k)*3_000_017
}

// digest is the SHA-256 of output lines, hex encoded.
func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}
