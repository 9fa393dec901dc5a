package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOverheadPct(t *testing.T) {
	cases := []struct {
		name               string
		bare, instrumented float64
		want               float64
	}{
		{"instrumented slower", 100, 97, 3},
		{"no difference", 80, 80, 0},
		{"instrumented faster is negative noise", 100, 102, -2},
		{"zero bare rate", 0, 50, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := overheadPct(c.bare, c.instrumented)
			if math.Abs(got-c.want) > 1e-9 {
				t.Errorf("overheadPct(%v, %v) = %v, want %v", c.bare, c.instrumented, got, c.want)
			}
		})
	}
}

func TestWriteBenchJSONRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_existing.json")
	const kept = "{}\n"
	if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
	err := writeBenchJSON(path, false, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("err = %v, want a refusal to overwrite", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != kept {
		t.Errorf("baseline changed to %q (read error %v)", data, err)
	}
}
