package main

import (
	"math"
	"testing"
	"time"
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

// A short measurement yields one finite overhead per pair; the bound itself
// is judged by `make overhead` at full windows.
func TestOverheadSectionShort(t *testing.T) {
	pcts, err := overheadSection(2, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcts) != 2 {
		t.Fatalf("got %d pairs, want 2", len(pcts))
	}
	for i, p := range pcts {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Errorf("pair %d overhead = %v, want finite", i, p)
		}
	}
}
