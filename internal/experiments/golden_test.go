//go:build !race

// The golden is kept out of -race builds: under the race detector it takes
// over 100 s on two cores, and the determinism-across-widths tests in
// parallel_test.go and fleetobs_test.go keep the same code paths under it.

package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFiguresGolden pins every seeded figure of the evaluation, at the
// budgets the experiments command prints by default, to
// testdata/figures.golden line for line: the figures are seeded, so any
// difference is a behaviour change. Regenerate after an intended change
// with: go test ./internal/experiments -run Golden -update
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	err := RunFigures(Figures(), DefaultBudget, func(_ Figure, rec string, _ time.Duration) error {
		got.WriteString(rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs (regenerate with -update if intended)\ngot:  %s\nwant: %s",
				path, i+1, g, w)
		}
	}
}
