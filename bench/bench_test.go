package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current program")

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, at a seed other than the golden one, and checks that the traced
// replay reproduces the untraced outputs, that the printed metrics are
// exactly the ones BENCHMARK.json declares, and that the results parse.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := func(ms []metricSpec) []string {
		var names []string
		for _, m := range ms {
			names = append(names, m.Name+" "+m.Unit)
		}
		slices.Sort(names)
		return names
	}
	var specWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(specWorkloads, w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(specWorkloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(specWorkloads), len(workloads))
	}

	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, options{seed: 2, trace: traced, smoke: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, rec.Failed, rec.Attempted, rec.Errors)
			}
			want := declared(sp.EndToEnd)
			if traced {
				want = declared(sp.PerLayer)
			}
			var got []string
			for name, m := range rec.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: printed metrics\n%v\ndeclared\n%v", w.name, traced, got, want)
			}
			checkResultLine(t, rec)
			if err := appendRecord(filepath.Join(dir, "results.jsonl"), rec); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	recs, err := readRecords(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*len(workloads) {
		t.Errorf("results file holds %d records, want %d", len(recs), 2*len(workloads))
	}
	for _, r := range recs {
		if r.Env.NProc == 0 || r.Env.GOMAXPROCS == 0 || r.Env.PoolWidth == 0 || r.Env.GoVersion == "" || len(r.Sizes) == 0 {
			t.Errorf("%s: environment or sizes missing: %+v %v", r.Workload, r.Env, r.Sizes)
		}
	}
}

// checkResultLine checks that the last stdout line is one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func checkResultLine(t *testing.T, rec *record) {
	t.Helper()
	var buf bytes.Buffer
	report(&buf, rec)
	if err := printResultLine(&buf, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", rec.Workload, err)
	}
	keys := sortedNames(obj)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result line keys %v", rec.Workload, keys)
	}
}

// TestGolden checks the first cycle of every workload at the default seed
// and full size against testdata/golden.json; -update rewrites the file
// instead.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size items")
	}
	got := map[string][]string{}
	for _, w := range workloads {
		r, err := w.setup(1, false)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < r.cycle(); k++ {
			res, err := r.run(k)
			if err != nil {
				t.Fatalf("%s item %d: %v", w.name, k, err)
			}
			got[w.name] = append(got[w.name], res.out...)
		}
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		if err := checkGolden(w.name, options{seed: 1}, got[w.name]); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
