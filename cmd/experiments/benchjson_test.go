package main

import (
	"math"
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
