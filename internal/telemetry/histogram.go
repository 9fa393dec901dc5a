package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Histogram is a log-linear latency histogram in hardware clock ticks:
// values 0..15 get exact buckets, and every power-of-two octave above is
// split into 16 linear sub-buckets, giving ≲ 6% relative resolution across
// the full uint64 range with a fixed 976-slot array and no allocation on
// Observe. Not safe for concurrent use on its own; the Live recorder guards
// its histograms with its journal mutex.
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSubBits = 4 // 16 linear sub-buckets per octave
	histSub     = 1 << histSubBits
	// Buckets: histSub exact small-value buckets plus 16 per remaining
	// octave of a 64-bit value.
	numBuckets = histSub + (64-histSubBits)*histSub
)

// bucketIndex maps a value to its bucket. Values below 16 are exact; above,
// the top five significant bits select (octave, sub-bucket).
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	sub := v>>(uint(e)-histSubBits) - histSub
	return histSub + (e-histSubBits)*histSub + int(sub)
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := histSubBits + (i-histSub)/histSub
	sub := uint64((i - histSub) % histSub)
	return (histSub+sub+1)<<(uint(e)-histSubBits) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket in which that rank falls, clamped to the
// observed maximum. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Reset clears all observations.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot returns a point-in-time copy of the histogram with its headline
// quantiles under the given name. Snapshots are the unit the merge plane
// exchanges: MergeSnapshot of a snapshot is exact (shared bucket
// boundaries), so merging snapshots across shards in any order or grouping
// yields the identical histogram.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  name,
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	h.Buckets(func(upper, count uint64) {
		s.Buckets = append(s.Buckets, [2]uint64{upper, count})
	})
	return s
}

// MergeSnapshot folds a snapshot of another histogram into this one. Bucket
// upper bounds are exact bucket boundaries, so each snapshot bucket lands in
// the identical bucket here and quantiles of the merged histogram match a
// histogram that had observed both streams directly (sum, count, min and max
// are merged exactly).
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	for _, b := range s.Buckets {
		h.counts[bucketIndex(b[0])] += b[1]
	}
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if s.Max > h.max {
		h.max = s.Max
	}
	h.count += s.Count
	h.sum += s.Sum
}

// Buckets calls fn for every non-empty bucket in ascending order with the
// bucket's inclusive upper bound and its count.
func (h *Histogram) Buckets(fn func(upper uint64, count uint64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(bucketUpper(i), c)
		}
	}
}

// WriteHistogramTable renders one histogram as an aligned ASCII table with
// cycle and microsecond columns and a bar per bucket — the worked-example
// format used by EXPERIMENTS.md and cmd/experiments.
func WriteHistogramTable(w io.Writer, h HistogramSnapshot) error {
	if h.Count == 0 {
		_, err := fmt.Fprintf(w, "%s: no observations\n", h.Name)
		return err
	}
	if _, err := fmt.Fprintf(w,
		"%s: n=%d  min=%v  p50=%v  p90=%v  p99=%v  max=%v\n",
		h.Name, h.Count, CyclesToDuration(h.Min), CyclesToDuration(h.P50),
		CyclesToDuration(h.P90), CyclesToDuration(h.P99), CyclesToDuration(h.Max)); err != nil {
		return err
	}
	var peak uint64
	for _, b := range h.Buckets {
		if b[1] > peak {
			peak = b[1]
		}
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i][0] < h.Buckets[j][0] })
	for _, b := range h.Buckets {
		bar := int(b[1] * 40 / peak)
		if bar == 0 {
			bar = 1
		}
		if _, err := fmt.Fprintf(w, "  <= %8d cyc (%9v) %7d %s\n",
			b[0], CyclesToDuration(b[0]), b[1], bars[:bar]); err != nil {
			return err
		}
	}
	return nil
}

const bars = "########################################"
