package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		median     float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 5, 3, 9}, 5, 2, 5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5, 2.5},
		{[]float64{4}, 4, 4, 4, 4},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 {
		t.Error("quartiles reordered its input")
	}
}

func TestIQRFrac(t *testing.T) {
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	if got := iqrFrac([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("iqrFrac of equal values = %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n        int
		permille int
		ok       bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true}, // p99 refused below 1000 samples
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	}
	for _, c := range cases {
		p, ok := tailPermille(c.n)
		if p != c.permille || ok != c.ok {
			t.Errorf("tailPermille(%d) = %d %v, want %d %v", c.n, p, ok, c.permille, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if v, ok := percentile(xs, 990); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v %v, want 990 true", v, ok)
	}
	if _, ok := percentile(xs[:999], 990); ok {
		t.Error("p99 of 999 samples was not refused")
	}
	if v, ok := percentile(xs[:20], 500); !ok || v != 990 {
		t.Errorf("p50 of 981..1000 = %v %v, want 990 true", v, ok)
	}
}

func TestOverheadPctSigned(t *testing.T) {
	cases := []struct{ traced, untraced, want float64 }{
		{110, 100, 10},
		{100, 100, 0},
		{97, 100, -3},
	}
	for _, c := range cases {
		if got := overheadPct(c.traced, c.untraced); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("overheadPct(%v, %v) = %v, want %v", c.traced, c.untraced, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	bound := 0.1
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "throughput", Unit: "units/s", Better: "higher", Bound: &bound},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound},
		},
		PerLayer: []metricSpec{{Name: "core.share", Unit: "frac", Better: "lower"}},
	}
	runs := func(sha string, vals map[string][]float64) []record {
		var rs []record
		for i := range vals["throughput"] {
			m := map[string]metric{}
			for name, v := range vals {
				m[name] = metric{Value: v[i]}
			}
			rs = append(rs, record{Workload: "w", Seed: int64(i + 1), OutputsSHA: sha, Metrics: m})
		}
		return rs
	}
	base := runs("x", map[string][]float64{
		"throughput": {100, 101, 99, 100, 102},
		"setup_s":    {10, 10.1, 9.9, 10, 10.2},
		"core.share": {0.5, 0.5, 0.5, 0.5, 0.5},
	})
	cases := []struct {
		name    string
		b       []record
		ok      bool
		verdict string
	}{
		{"in-band noise passes", runs("x", map[string][]float64{
			"throughput": {98, 100, 101, 99, 100},
			"setup_s":    {10.1, 10, 9.8, 10.3, 10},
			"core.share": {0.4, 0.4, 0.4, 0.4, 0.4},
		}), true, "ok"},
		{"throughput regression fails", runs("x", map[string][]float64{
			"throughput": {80, 81, 79, 80, 82},
			"setup_s":    {10, 10, 10, 10, 10},
			"core.share": {0.5, 0.5, 0.5, 0.5, 0.5},
		}), false, "REGRESSED"},
		{"set-up regression fails", runs("x", map[string][]float64{
			"throughput": {100, 100, 100, 100, 100},
			"setup_s":    {12, 12, 12, 12, 12},
			"core.share": {0.5, 0.5, 0.5, 0.5, 0.5},
		}), false, "REGRESSED"},
		{"figure drift fails", runs("y", map[string][]float64{
			"throughput": {100, 101, 99, 100, 102},
			"setup_s":    {10, 10.1, 9.9, 10, 10.2},
			"core.share": {0.5, 0.5, 0.5, 0.5, 0.5},
		}), false, "DIGESTS DIFFER"},
		{"noisy side is unresolved", runs("x", map[string][]float64{
			"throughput": {60, 140, 95, 100, 130},
			"setup_s":    {10, 10, 10, 10, 10},
			"core.share": {0.5, 0.5, 0.5, 0.5, 0.5},
		}), true, "unresolved"},
	}
	for _, c := range cases {
		var out strings.Builder
		if got := compare(&out, sp, base, c.b); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.verdict, out.String())
		}
	}
}
