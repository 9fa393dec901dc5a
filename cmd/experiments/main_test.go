package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// The deterministic printers reproduce the paper's numbers exactly.
func TestPrintersShowPaperNumbers(t *testing.T) {
	for _, c := range []struct {
		name  string
		print func() error
		want  []string
	}{
		// Fig. 5: Ten_det 1.28 µs + Tinit 80 ns = Tresp 1.36 µs.
		{"fig5", fig5, []string{"Ten_det       1.28µs", "Tinit           80ns", "Tresp (en)    1.36µs", "Tresp (xc)    2.64µs"}},
		{"table1", table1, []string{"-51.0", "-25.2", "-19.1"}},
		{"resources", resources, []string{"cross-correlator  Slices:2613", "total             Slices:4735"}},
		{"reconfig", reconfig, []string{"(4 register writes)", "(18 register writes)"}},
	} {
		out, err := captureStdout(t, c.print)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output lacks %q:\n%s", c.name, w, out)
			}
		}
	}
}

func TestRunIncidentWritesDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incident_dump.json")
	out, err := captureStdout(t, func() error { return runIncident(path) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "byte-identical") {
		t.Errorf("output lacks the replay check:\n%s", out)
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
