// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulation. Select an experiment with -run, or run
// them all; -full raises the statistical budgets toward the paper's
// (10,000 frames per detection point, longer iperf runs) at the cost of
// run time.
//
// A figure (experiments.Figures) prints its caption and then its seeded
// values as name=value records: at the default budgets, the records of
// every figure in order are internal/experiments/testdata/figures.golden.
// The other experiments print their own reports.
//
//	go run ./cmd/experiments -run fig6
//	go run ./cmd/experiments -run all -full
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags to the commands.
type options struct {
	frames                      int // the budget's frames per detection point
	ledger, chaosOut, flightOut string
	fleetOut                    string
	chaosSeed, fleetSeed        int64
	fleetCells                  int
}

// command is a -run target that is not a figure: its report is for
// reading and is not pinned by the golden.
type command struct {
	name string
	run  func(*options) error
}

// commands run after the figures under -run all.
var commands = []command{
	{"resources", func(*options) error { return resources() }},
	{"reconfig", func(*options) error { return reconfig() }},
	{"reaction", func(o *options) error { return reaction(o.frames / 3) }},
	{"verdict", func(o *options) error { return runVerdict(o.frames/6, o.ledger) }},
	{"slo", func(o *options) error { return runSLO(o.frames / 3) }},
	{"chaos", func(o *options) error { return runChaos(o.chaosSeed, 12, o.chaosOut) }},
	{"incident", func(o *options) error { return runIncident(o.flightOut) }},
	{"fleetobs", func(o *options) error {
		return runFleetObs(o.fleetCells, fleetFrames(o.frames), o.fleetSeed, o.fleetOut)
	}},
	{"overhead", func(*options) error { return runOverhead() }},
}

// runNames lists every -run target besides all: the figures in golden
// order, then the commands.
func runNames() []string {
	var names []string
	for _, f := range experiments.Figures() {
		names = append(names, f.Name)
	}
	for _, c := range commands {
		names = append(names, c.name)
	}
	return names
}

// selectRun returns the figures and the commands that -run sel names.
func selectRun(sel string) ([]experiments.Figure, []command) {
	figs := slices.DeleteFunc(experiments.Figures(), func(f experiments.Figure) bool {
		return sel != "all" && sel != f.Name
	})
	cmds := slices.DeleteFunc(slices.Clone(commands), func(c command) bool {
		return sel != "all" && sel != c.name
	})
	return figs, cmds
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	sel := fs.String("run", "all", "experiment: all, "+strings.Join(runNames(), ", "))
	full := fs.Bool("full", false, "paper-scale statistical budgets (slow)")
	parallel := fs.Int("parallel", 0, "experiment worker fan-out (0 = GOMAXPROCS, 1 = sequential)")
	var o options
	fs.StringVar(&o.ledger, "ledger", "", "with -run verdict: write the per-packet JSONL verdict ledger to this path")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 42, "with -run chaos: master seed of the fault-campaign sweep")
	fs.StringVar(&o.chaosOut, "chaos-out", "chaos_report.jsonl", "with -run chaos: JSONL campaign report path (empty to skip)")
	fs.StringVar(&o.flightOut, "flight-out", "incident_dump.json", "with -run incident: flight-recorder dump path (empty to skip)")
	fs.IntVar(&o.fleetCells, "fleet-cells", 256, "with -run fleetobs: number of concurrent fleet cells")
	fs.Int64Var(&o.fleetSeed, "fleet-seed", 7, "with -run fleetobs: master seed of the fleet drill")
	fs.StringVar(&o.fleetOut, "fleet-out", "fleet_ledger.jsonl", "with -run fleetobs: JSONL fleet ledger path (empty to skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	figs, cmds := selectRun(strings.ToLower(*sel))
	if len(figs)+len(cmds) == 0 {
		return fmt.Errorf("unknown experiment %q (want all, %s)", *sel, strings.Join(runNames(), ", "))
	}

	experiments.SetParallelism(*parallel)
	budget := experiments.DefaultBudget
	if *full {
		budget = experiments.FullBudget
		experiments.SetFACalibrationScale(25)
	}
	o.frames = budget.Frames

	err := experiments.RunFigures(figs, budget, func(f experiments.Figure, rec string, wall time.Duration) error {
		fmt.Printf("==== %s ====\n%s\n%s", f.Name, f.Caption, rec)
		printWall(f.Name, wall)
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range cmds {
		fmt.Printf("==== %s ====\n", c.name)
		start := time.Now()
		if err := c.run(&o); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		printWall(c.name, time.Since(start))
	}
	return nil
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printWall(name string, wall time.Duration) {
	fmt.Printf("(%s in %v)\n\n", name, wall.Round(time.Millisecond))
}

// fleetFrames derives the per-cell engagement count from the statistical
// frame budget: 1/50th of the single-cell budget, clamped so a -full run
// does not multiply it by the whole fleet.
func fleetFrames(frames int) int {
	return min(max(frames/50, 3), 24)
}

func reaction(frames int) error {
	fmt.Println("measured reaction latency, energy trigger on 802.11g frames")
	fmt.Println("(paper Fig. 5 budget: Ten_det 1.28 µs + Tinit 80 ns = 1.36 µs,")
	fmt.Println(" plus the receive front end's resampler group delay)")
	res, err := experiments.MeasureReactionLatency(experiments.ReactionConfig{
		Frames: frames, Seed: 7,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  frames %d, jam bursts %d\n", res.Frames, res.Triggered)
	fmt.Printf("  reaction p50 %v  p99 %v\n", res.ReactionP50, res.ReactionP99)
	fmt.Printf("  trigger→RF p50 %v (Tinit, paper: ≈80 ns)\n", res.TriggerToRFP50)
	h := res.Snapshot.Histogram(telemetry.HistReaction)
	telemetry.WriteHistogramTable(os.Stdout, h)
	return nil
}

func resources() error {
	fmt.Println("FPGA resource utilization (papers Figs. 3/4 insets)")
	r := experiments.Resources()
	fmt.Printf("  cross-correlator  %s\n", r.XCorr)
	fmt.Printf("  energy diff       %s\n", r.Energy)
	fmt.Printf("  jam controller    %s (estimated)\n", r.Jammer)
	fmt.Printf("  total             %s\n", r.Total)
	return nil
}

func reconfig() error {
	fmt.Println("run-time reconfigurability (paper §4.3)")
	p, d, err := experiments.ReconfigLatency()
	if err != nil {
		return err
	}
	fmt.Printf("  jammer personality switch  %v (4 register writes)\n", p)
	fmt.Printf("  full detector reprogram    %v (18 register writes)\n", d)
	fmt.Println("  (no FPGA reprogramming in either case)")
	return nil
}
