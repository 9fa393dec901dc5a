package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// healthyReport is a report every gate passes in both modes.
func healthyReport() *BenchReport {
	r := &BenchReport{Figures: map[string]float64{
		"fig6_pd_-4dB":      0.25,
		"fig10_prr_weakest": 1,
	}}
	r.ThroughputMsps.BlockOverScalar = 2.3
	r.TelemetryOverheadPct = 0.5
	return r
}

// failing lists the names of the gates that did not hold.
func failing(out []outcome) []string {
	var names []string
	for _, o := range out {
		if !o.ok {
			names = append(names, o.name)
		}
	}
	return names
}

func TestEvaluate(t *testing.T) {
	cases := []struct {
		name     string
		edit     func(base, fresh *BenchReport)
		tolerant bool
		want     []string
	}{
		{"healthy run passes", func(_, _ *BenchReport) {}, false, nil},
		{"changed figure fails", func(_, f *BenchReport) { f.Figures["fig6_pd_-4dB"] = 0.26 },
			false, []string{"fig6_pd_-4dB"}},
		{"figure missing from fresh run fails", func(_, f *BenchReport) { delete(f.Figures, "fig10_prr_weakest") },
			false, []string{"fig10_prr_weakest"}},
		{"tolerant mode does not gate figures", func(_, f *BenchReport) { f.Figures = map[string]float64{} },
			true, nil},
		{"baseline without figures skips figure gates", func(b, f *BenchReport) { b.Figures, f.Figures = nil, nil },
			false, nil},
		{"block slower than scalar fails full mode", func(_, f *BenchReport) { f.ThroughputMsps.BlockOverScalar = 0.95 },
			false, []string{"block_over_scalar"}},
		{"block slower than scalar within tolerant bound", func(_, f *BenchReport) { f.ThroughputMsps.BlockOverScalar = 0.95 },
			true, nil},
		{"overhead over ceiling fails full mode", func(_, f *BenchReport) { f.TelemetryOverheadPct = 3.5 },
			false, []string{"telemetry_overhead_pct"}},
		{"negative overhead is noise and passes", func(_, f *BenchReport) { f.TelemetryOverheadPct = -9 },
			false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, fresh := healthyReport(), healthyReport()
			c.edit(base, fresh)
			out := evaluate(base, fresh, c.tolerant)
			if got := failing(out); !reflect.DeepEqual(got, c.want) {
				t.Errorf("failing gates = %v, want %v", got, c.want)
			}
			rows := len(gates())
			if !c.tolerant {
				rows += len(base.Figures)
			}
			if len(out) != rows {
				t.Errorf("%d gates evaluated, want %d", len(out), rows)
			}
		})
	}
}

func TestCommittedBaselineEvaluatesClean(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Figures) != 12 {
		t.Fatalf("baseline has %d figures, want 12", len(base.Figures))
	}
	for _, tolerant := range []bool{false, true} {
		if got := failing(evaluate(&base, &base, tolerant)); got != nil {
			t.Errorf("tolerant=%v: baseline fails its own gates %v", tolerant, got)
		}
	}
}

// A baseline that cannot be read or parsed stops bench-diff before it
// prints its header or measures anything.
func TestRunBenchDiffBadBaseline(t *testing.T) {
	malformed := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(malformed, []byte(`{"figures": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{filepath.Join(t.TempDir(), "missing.json"), "read baseline"},
		{malformed, "parse " + malformed},
	} {
		out, err := captureStdout(t, func() error { return runBenchDiff(c.path, true, 1, 1) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.path, err, c.want)
		}
		if out != "" {
			t.Errorf("%s: printed %q before failing", c.path, out)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	base, fresh := healthyReport(), healthyReport()
	fresh.Figures["fig6_pd_-4dB"] = 0.25000000000000006
	delete(fresh.Figures, "fig10_prr_weakest")
	lines := map[string]string{}
	for _, o := range evaluate(base, fresh, false) {
		lines[o.name] = o.String()
	}
	for name, want := range map[string][]string{
		"fig10_prr_weakest": {"FAIL", "missing", "(== 1)"},
		// Exact gates print every digit, so the change is visible.
		"fig6_pd_-4dB":      {"FAIL", "0.25000000000000006", "(== 0.25)"},
		"block_over_scalar": {"ok", "2.3 x", "(>= 1)"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[name], w) {
				t.Errorf("%s: %q lacks %q", name, lines[name], w)
			}
		}
	}
}

// FuzzEvaluateBaseline feeds arbitrary baselines through bench-diff's own
// reader. Every baseline that parses must evaluate in full mode without
// panicking, to one row per gate and per baseline figure, and a figure row
// must pass exactly when the fresh report holds that figure with an equal
// value.
func FuzzEvaluateBaseline(f *testing.F) {
	for _, name := range []string{"BENCH_2026-08-06.json", "BENCH_2026-08-08.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir := f.TempDir()
	fresh := healthyReport()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "BENCH_fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		base, err := readBaseline(path)
		if err != nil {
			return
		}
		out := evaluate(base, fresh, false)
		nGates := len(gates())
		if len(out) != nGates+len(base.Figures) {
			t.Fatalf("%d rows for %d gates and %d figures", len(out), nGates, len(base.Figures))
		}
		keys := make([]string, 0, len(base.Figures))
		for k := range base.Figures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			o := out[nGates+i]
			v, ok := fresh.Figures[k]
			if want := ok && v == base.Figures[k]; o.name != k || o.ok != want {
				t.Errorf("row %q ok=%v, want %q ok=%v", o.name, o.ok, k, want)
			}
		}
	})
}
