// Command bench is the repository benchmark. It drives four workloads only
// through the program's public entry points, times every call from outside,
// checks every seeded output, and prints each metric by name with its unit.
// The last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// A run with -trace 1 replays each item through the public calls of every
// layer with a span around each call and reports per-layer metrics instead.
// With -compare it compares two results files. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiments"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

//go:embed testdata/golden.json
var goldenJSON []byte

// metricDef declares one printed metric.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics count time in calibrated seconds (see calibrate.go).
var endToEndMetrics = []metricDef{
	{"throughput", "units/cal-s", "higher"},
	{"alloc_B_per_unit", "B/unit", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics lists the traced run's metrics: four per layer, then the
// unattributed share, the core call tail, the useful-work ratios and the
// tracing overhead.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".calls", "calls/item", "lower"},
			metricDef{l + ".share", "frac", "lower"},
			metricDef{l + ".ns_per_sample", "ns/sample", "lower"},
			metricDef{l + ".B_per_call", "B/call", "lower"},
		)
	}
	return append(defs,
		metricDef{"other.share", "frac", "lower"},
		metricDef{"core.p99_us", "us", "lower"},
		metricDef{"wifi.rx.fcs_ok_frac", "frac", "higher"},
		metricDef{"mac.attempts_per_packet", "count", "lower"},
		metricDef{"core.jam_sample_frac", "frac", "lower"},
		metricDef{"trace_overhead_pct", "%", "lower"},
	)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is where a run ran. Parallel ratios are only comparable between
// runs with the same nproc and GOMAXPROCS.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolWidth  int    `json:"pool_width"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// tail is the highest latency percentile the run's sample count supports.
type tail struct {
	Permille int     `json:"permille"`
	MS       float64 `json:"ms"`
	Samples  int     `json:"samples"`
}

// record is one run in the results file.
type record struct {
	Workload   string         `json:"workload"`
	Unit       string         `json:"unit"`
	Seed       int64          `json:"seed"`
	Trace      int            `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Start      string         `json:"start"`
	Env        envInfo        `json:"env"`
	Sizes      map[string]any `json:"sizes"`
	Items      int            `json:"items"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Errors     []string       `json:"errors,omitempty"`
	OutputsSHA string         `json:"outputs_sha"`
	ItemSHA    []string       `json:"item_sha"`
	// ItemMS and ItemCalMS are each item's busy time, in wall and in
	// calibrated milliseconds. Cal holds the calibration loop times in
	// milliseconds, before the first item and after each one; CalMS is
	// their median.
	ItemMS    []float64 `json:"item_ms"`
	ItemCalMS []float64 `json:"item_cal_ms"`
	Cal       []float64 `json:"cal_ms_each"`
	CalMS     float64   `json:"cal_ms"`
	// WallThroughput and WallSetupS are throughput and setup_s in wall
	// seconds, computed the same way.
	WallThroughput float64           `json:"wall_throughput"`
	WallSetupS     float64           `json:"wall_setup_s"`
	Tail           *tail             `json:"tail,omitempty"`
	Metrics        map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
	outDir  string
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "shifts every workload's input seeds; 1 is the experiments' own defaults")
	seconds := flag.Float64("seconds", 25, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 replays the items traced and reports per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for results.jsonl and trace files")
	cmp := flag.Bool("compare", false, "compare the two results files given as arguments")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration, for -compare")
	flag.Parse()

	if *cmp {
		os.Exit(runCompare(os.Stdout, *specPath, flag.Args()))
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1\n")
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *out,
	}
	code := 0
	for _, w := range selected {
		rec, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		report(os.Stdout, rec)
		if err := appendRecord(filepath.Join(o.outDir, "results.jsonl"), rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
		if err := printResultLine(os.Stdout, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
		if rec.Failed > 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func runCompare(w io.Writer, specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i, f := range files {
		if sides[i], err = readRecords(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	if !compare(w, sp, sides[0], sides[1]) {
		return 1
	}
	return 0
}

// runWorkload sets w up, then runs its timed loop (or, traced, its
// one-worker loop and the traced replay) and checks every output.
func runWorkload(w workload, o options) (*record, error) {
	experiments.SetParallelism(0)
	reps := setupReps
	if o.trace {
		reps = 1
	}
	calibrate() // first touch of the calibration buffer, untimed
	var r runner
	var setups, wallSetups []float64
	for i := 0; i < reps; i++ {
		r = nil
		runtime.GC()
		c0 := calibrate()
		t0 := time.Now()
		var err error
		if r, err = w.setup(o.seed, o.smoke); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warm, err := w.setup(o.seed, true)
		if err != nil {
			return nil, fmt.Errorf("warm-up setup: %w", err)
		}
		if _, err := warm.run(0); err != nil {
			return nil, fmt.Errorf("warm-up item: %w", err)
		}
		d := time.Since(t0).Seconds()
		wallSetups = append(wallSetups, d)
		setups = append(setups, d*calScale(c0, calibrate()))
	}

	rec := &record{
		Workload: w.name, Unit: w.unit, Seed: o.seed, Trace: btoi(o.trace),
		Seconds: o.seconds.Seconds(), Start: time.Now().UTC().Format(time.RFC3339),
		Sizes: r.sizes(), Metrics: map[string]metric{},
	}
	if o.trace {
		experiments.SetParallelism(1)
		defer experiments.SetParallelism(0)
	}
	rec.Env = envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolWidth: experiments.Parallelism(), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}

	loop := o.seconds
	if o.trace {
		loop = o.seconds / 2
	}
	// Items of one class (k mod cycle) do the same kind of work on different
	// inputs, so a class costs its median item and a cycle the sum of its
	// classes. Runs then agree however many items of each class they fit.
	type class struct {
		units            float64
		cal, wall, alloc []float64
	}
	cycle := r.cycle()
	classes := make([]class, cycle)
	runtime.GC()
	start := time.Now()
	var (
		outs     [][]string
		lat      []float64
		untraced time.Duration
		m0, m1   runtime.MemStats
	)
	cal := calibrate()
	rec.Cal = append(rec.Cal, cal)
	for k := 0; k < cycle || time.Since(start) < loop; k++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := r.run(k)
		untraced += time.Since(t0)
		runtime.ReadMemStats(&m1)
		next := calibrate()
		rec.Cal = append(rec.Cal, next)
		scale := calScale(cal, next)
		cal = next
		rec.Attempted++
		outs = append(outs, res.out)
		if err != nil {
			rec.fail("item %d: %v", k, err)
			continue
		}
		var busy time.Duration
		for _, d := range res.lat {
			lat = append(lat, float64(d))
			busy += d
		}
		c := &classes[k%cycle]
		c.units = res.units
		c.wall = append(c.wall, busy.Seconds())
		c.cal = append(c.cal, busy.Seconds()*scale)
		c.alloc = append(c.alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		rec.ItemMS = append(rec.ItemMS, ms(busy))
		rec.ItemCalMS = append(rec.ItemCalMS, ms(busy)*scale)
	}
	rec.Items = len(outs)
	for _, out := range outs {
		rec.ItemSHA = append(rec.ItemSHA, digest(out))
	}
	first := slices.Concat(outs[:cycle]...)
	rec.OutputsSHA = digest(first)
	if err := checkGolden(w.name, o, first); err != nil {
		rec.fail("%v", err)
	}
	if p, ok := tailPermille(len(lat)); ok {
		v, _ := percentile(lat, p)
		rec.Tail = &tail{Permille: p, MS: v / 1e6, Samples: len(lat)}
	}
	rec.CalMS = median(rec.Cal)

	if !o.trace {
		var cycleUnits, cycleCal, cycleWall, cycleAlloc float64
		for _, c := range classes {
			cycleUnits += c.units
			cycleCal += median(c.cal)
			cycleWall += median(c.wall)
			cycleAlloc += median(c.alloc)
		}
		rec.set("throughput", cycleUnits/cycleCal)
		rec.set("alloc_B_per_unit", cycleAlloc/cycleUnits)
		rec.set("setup_s", median(setups))
		rec.WallThroughput = cycleUnits / cycleWall
		rec.WallSetupS = median(wallSetups)
		return rec, nil
	}

	tr := newTracer()
	for k := range outs {
		tr.item = k
		id := tr.begin(rootSpan)
		out, err := r.traced(k, tr)
		tr.end(id, 0)
		rec.Attempted++
		switch {
		case err != nil:
			rec.fail("traced item %d: %v", k, err)
		case !slices.Equal(out, outs[k]):
			rec.fail("traced item %d: outputs differ from the untraced run", k)
		}
	}
	lm := tr.layerMetrics(len(outs), untraced)
	for _, def := range perLayerMetrics() {
		rec.set(def.name, lm[def.name])
	}
	if err := tr.writeTrace(o.outDir, w.name, o.seed); err != nil {
		return nil, err
	}
	return rec, nil
}

func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics()...) {
		units[d.name] = d.unit
	}
	return units
}()

// set records a declared metric with its unit.
func (r *record) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// checkGolden compares the first cycle's outputs with the committed ones of
// the default seed at full size; other seeds and sizes have no golden
// outputs.
func checkGolden(workload string, o options, out []string) error {
	if o.seed != 1 || o.smoke {
		return nil
	}
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden file: %w", err)
	}
	want, ok := golden[workload]
	if !ok {
		return fmt.Errorf("golden file has no outputs for %s", workload)
	}
	if !slices.Equal(out, want) {
		return fmt.Errorf("first cycle's outputs differ from testdata/golden.json")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints the run for people: environment, metrics and digest.
func report(w io.Writer, r *record) {
	fmt.Fprintf(w, "%s seed=%d trace=%d items=%d attempted=%d failed=%d (unit: %s)\n",
		r.Workload, r.Seed, r.Trace, r.Items, r.Attempted, r.Failed, r.Unit)
	fmt.Fprintf(w, "  env nproc=%d gomaxprocs=%d pool=%d %s %s/%s sizes=%v\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.PoolWidth, r.Env.GoVersion, r.Env.OS, r.Env.Arch, r.Sizes)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.Trace == 0 {
		fmt.Fprintf(w, "  in wall seconds: throughput %.6g units/s, setup %.6g s; calibration loop %.4g ms\n",
			r.WallThroughput, r.WallSetupS, r.CalMS)
	}
	if r.Tail != nil {
		fmt.Fprintf(w, "  call latency p%g %.6g ms over %d calls\n", float64(r.Tail.Permille)/10, r.Tail.MS, r.Tail.Samples)
	}
	fmt.Fprintf(w, "  outputs_sha %s\n", r.OutputsSHA)
}

func appendRecord(path string, r *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printResultLine prints the machine-read result as the last stdout line.
func printResultLine(w io.Writer, r *record) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
