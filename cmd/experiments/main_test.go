package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// captureStdout runs f with os.Stdout redirected and returns what it printed
// along with f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	ferr := f()
	w.Close()
	return <-printed, ferr
}

func TestFleetFrames(t *testing.T) {
	for _, c := range []struct{ frames, want int }{
		{0, 3}, {149, 3}, {150, 3}, {300, 6}, {1200, 24}, {1250, 24}, {10000, 24},
	} {
		if got := fleetFrames(c.frames); got != c.want {
			t.Errorf("fleetFrames(%d) = %d, want %d", c.frames, got, c.want)
		}
	}
}

// runCLI runs the command line args and returns what it printed.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return out
}

// The deterministic experiments reproduce the paper's numbers exactly.
func TestPrintersShowPaperNumbers(t *testing.T) {
	for _, c := range []struct {
		name string
		want []string
	}{
		// Fig. 5: Ten_det 1.28 µs + Tinit 80 ns = Tresp 1.36 µs.
		{"fig5", []string{"(paper §3.1, Fig. 5", "fig5_ten_det=1.28µs\n", "fig5_tinit=80ns\n",
			"fig5_tresp_energy=1.36µs\n", "fig5_tresp_xcorr=2.64µs\n"}},
		{"table1", []string{"(paper Table 1", "table1_in1_out2=-51\n", "=-25.2\n", "=-19.1\n"}},
		{"resources", []string{"cross-correlator  Slices:2613", "total             Slices:4735"}},
		{"reconfig", []string{"(4 register writes)", "(18 register writes)"}},
	} {
		out := runCLI(t, "-run", c.name)
		for _, w := range append(c.want, "==== "+c.name+" ====\n", "("+c.name+" in ") {
			if !strings.Contains(out, w) {
				t.Errorf("%s output lacks %q:\n%s", c.name, w, out)
			}
		}
	}
}

// records returns the name=value lines of the command's output, the lines
// the figure golden pins.
func records(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if name, _, ok := strings.Cut(line, "="); ok && name != "" && !strings.Contains(name, " ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// The records a figure prints are the golden's lines for it, verbatim and
// in order.
func TestFigureRecordsAreGoldenLines(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5", "table1"} {
		rec := records(runCLI(t, "-run", name))
		if rec == "" {
			t.Fatalf("%s printed no records", name)
		}
		if !strings.HasPrefix(rec, name+"_") || !strings.Contains("\n"+string(golden), "\n"+rec) {
			t.Errorf("%s records are not a run of golden lines:\n%s", name, rec)
		}
	}
}

// The paper-scale digests scripts/fullcheck.sh checks name every figure
// section, in order, each with one sha256.
func TestFullDigestsNameEveryFigure(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "full.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || len(f[0]) != 2*sha256.Size {
			t.Fatalf("digest line %q is not a sha256 and a section", line)
		}
		got = append(got, f[1])
	}
	for _, f := range experiments.Figures() {
		want = append(want, f.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("digest sections %v, want experiments.Figures() %v", got, want)
	}
}

// The reports of the other experiments, each under its header.
func TestRunCommands(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "reaction"}, "reaction p50"},
		{[]string{"-run", "verdict", "-ledger", filepath.Join(dir, "ledger.jsonl")}, "wrote"},
		{[]string{"-run", "slo"}, "all budgets met"},
		{[]string{"-run", "chaos", "-chaos-out", filepath.Join(dir, "chaos.jsonl")}, "report: "},
		{[]string{"-run", "fleetobs", "-fleet-cells", "8", "-fleet-out", ""}, "reconciled"},
	} {
		out := runCLI(t, c.args...)
		name := c.args[1]
		for _, w := range []string{"==== " + name + " ====\n", c.want, "(" + name + " in "} {
			if !strings.Contains(out, w) {
				t.Errorf("%v output lacks %q:\n%s", c.args, w, out)
			}
		}
	}
	// The seeded files are byte-stable; EXPERIMENTS.md quotes these hashes.
	for f, want := range map[string]string{
		"ledger.jsonl": "40af5fa2c29b703ccb39a28c30d020daf721fa355783322f251e1f235514df5d",
		"chaos.jsonl":  "10fd8e24273fc09d1cfc4ae82ee423845a6f6a853985f492268f9dd41a3f8caf",
	} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("%s not written: %v", f, err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Errorf("%s sha256 = %s, want %s", f, got, want)
		}
	}
}

// writeFile reports a path it cannot create.
func TestWriteFileReportsCreateError(t *testing.T) {
	called := false
	err := writeFile(t.TempDir(), func(io.Writer) error { called = true; return nil })
	if err == nil || called {
		t.Errorf("writeFile to a directory: err=%v, write called=%v", err, called)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{{"-run", "fig99"}, {"-no-such-flag"}} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// Every name -run lists selects exactly its own figure or command, and all
// selects every one of them.
func TestEveryRunNameDispatches(t *testing.T) {
	names := runNames()
	for _, name := range names {
		figs, cmds := selectRun(name)
		var got []string
		for _, f := range figs {
			got = append(got, f.Name)
		}
		for _, c := range cmds {
			got = append(got, c.name)
		}
		if len(got) != 1 || got[0] != name {
			t.Errorf("-run %s selects %v", name, got)
		}
	}
	figs, cmds := selectRun("all")
	if len(figs)+len(cmds) != len(names) {
		t.Errorf("-run all selects %d experiments, want %d", len(figs)+len(cmds), len(names))
	}
}

func TestRunIncidentWritesDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incident_dump.json")
	out := runCLI(t, "-run", "incident", "-flight-out", path)
	// The seeded dump's hash, as EXPERIMENTS.md E16 quotes it.
	if !strings.Contains(out, "byte-identical: fnv1a ce229d3694bd6f25\n") {
		t.Errorf("output lacks the replay check and its hash:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if len(dump) == 0 {
		t.Error("dump is empty")
	}
}
