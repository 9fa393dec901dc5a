package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters by the
// exclusive method, the default of Python's statistics.quantiles(xs, n=4),
// so spreads computed here match those computed from the printed results.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// iqrFrac is the distance between the first and third quartiles as a share
// of the median: the run-to-run spread the benchmark's bounds are judged by.
func iqrFrac(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPermille returns the highest of p50, p90, p99 and p99.9, in permille,
// that has at least ten of n samples beyond it, and false when even the
// median has fewer. A p99 therefore needs at least 1000 samples.
func tailPermille(n int) (int, bool) {
	for _, p := range []int{999, 990, 900, 500} {
		if n-nearestRank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-permille percentile of n samples.
func nearestRank(n, p int) int { return (p*n + 999) / 1000 }

// percentile returns the nearest-rank p-permille percentile of xs, refusing
// (false) when fewer than ten samples lie beyond it.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	if n == 0 || n-nearestRank(n, p) < 10 {
		return 0, false
	}
	return sortedCopy(xs)[nearestRank(n, p)-1], true
}

// overheadPct is how much longer traced took than untraced, in percent of
// untraced. It is signed: a traced run that happened to be faster reads
// negative, which is measurement noise and is reported as such.
func overheadPct(traced, untraced float64) float64 {
	return (traced - untraced) / untraced * 100
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spec is the part of BENCHMARK.json the compare mode needs.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a results file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints, for every metric × workload found in both sets of runs,
// each side's median and IQR, the change, and a verdict against the bound
// BENCHMARK.json declares; then whether the seeded output digests agree.
// It returns false when a metric regressed or a digest differs.
func compare(w io.Writer, sp *spec, a, b []record) bool {
	ok := true
	byName := map[string]metricSpec{}
	for _, m := range sp.EndToEnd {
		byName[m.Name] = m
	}
	for _, m := range sp.PerLayer {
		byName[m.Name] = m
	}
	fmt.Fprintf(w, "%-14s %-28s %-10s %26s %26s %8s  %s\n",
		"workload", "metric", "unit", "A median [IQR] n", "B median [IQR] n", "change", "verdict")
	for _, wl := range sp.Workloads {
		av, bv := values(a, wl.Name), values(b, wl.Name)
		for _, name := range sortedNames(av) {
			ms, declared := byName[name]
			xs, ys := av[name], bv[name]
			if len(ys) == 0 {
				continue
			}
			ma, mb := median(xs), median(ys)
			change := ratio(mb-ma, math.Abs(ma)) * 100
			verdict := "-"
			if declared && ms.Bound != nil {
				verdict = judge(ms, xs, ys)
				if verdict == "REGRESSED" {
					ok = false
				}
			} else if !declared {
				verdict = "undeclared"
			}
			fmt.Fprintf(w, "%-14s %-28s %-10s %26s %26s %+7.2f%%  %s\n",
				wl.Name, name, ms.Unit, summary(xs), summary(ys), change, verdict)
		}
		if same, detail := digestsAgree(a, b, wl.Name); same {
			fmt.Fprintf(w, "%-14s outputs: digests equal (%s)\n", wl.Name, detail)
		} else {
			fmt.Fprintf(w, "%-14s outputs: DIGESTS DIFFER (%s)\n", wl.Name, detail)
			ok = false
		}
	}
	return ok
}

// judge applies the bound to one metric: REGRESSED when B's median is worse
// than A's by more than the bound, unresolved when either side's own spread
// is wider than the bound (unless every B run beats every A run), else ok.
func judge(ms metricSpec, xs, ys []float64) string {
	bound := *ms.Bound
	ma, mb := median(xs), median(ys)
	worse := (mb - ma) / math.Abs(ma)
	if ms.Better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "REGRESSED"
	}
	if iqrFrac(xs) > bound || iqrFrac(ys) > bound {
		if allBetter(ms.Better, xs, ys) {
			return "ok"
		}
		return "unresolved"
	}
	return "ok"
}

func allBetter(better string, xs, ys []float64) bool {
	sx, sy := sortedCopy(xs), sortedCopy(ys)
	if better == "higher" {
		return sy[0] > sx[len(sx)-1]
	}
	return sy[len(sy)-1] < sx[0]
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.1f%%] %d", median(xs), iqrFrac(xs)*100, len(xs))
}

// values collects every metric value of one workload across records.
func values(rs []record, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// digestsAgree checks that runs of the same workload and seed produced the
// same outputs on both sides: equal outputs_sha, and equal per-item digests
// over the items both completed.
func digestsAgree(a, b []record, workload string) (bool, string) {
	seen := map[int64]record{}
	for _, r := range a {
		if r.Workload == workload {
			seen[r.Seed] = r
		}
	}
	seeds := 0
	for _, r := range b {
		ra, found := seen[r.Seed]
		if r.Workload != workload || !found {
			continue
		}
		seeds++
		if ra.OutputsSHA != r.OutputsSHA {
			return false, fmt.Sprintf("seed %d: %.12s vs %.12s", r.Seed, ra.OutputsSHA, r.OutputsSHA)
		}
		for i := 0; i < min(len(ra.ItemSHA), len(r.ItemSHA)); i++ {
			if ra.ItemSHA[i] != r.ItemSHA[i] {
				return false, fmt.Sprintf("seed %d item %d", r.Seed, i)
			}
		}
	}
	if seeds == 0 {
		return true, "no seed run on both sides"
	}
	return true, fmt.Sprintf("%d seeds", seeds)
}
