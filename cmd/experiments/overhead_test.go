package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/host"
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

// The gate's core is armed and fires on a preamble over the noise floor,
// but its quiet-span input detects and triggers nothing.
func TestOverheadInputIsQuiet(t *testing.T) {
	c, err := benchCore()
	if err != nil {
		t.Fatal(err)
	}
	buf := quietSpanInput()
	tx := make([]complex128, len(buf))
	for i := 0; i < 10; i++ {
		c.ProcessBlock(buf, tx)
	}
	if s := c.Stats(); s.XCorrDetections+s.EnergyHighDetections+s.JamTriggers != 0 {
		t.Fatalf("quiet-span input: %+v, want no detection and no trigger", s)
	}
	tpl := host.WiFiShortTemplate()
	frame := append(append(dsp.Samples{}, tpl...), tpl...)
	block := dsp.NewNoiseSource(1e-6, 1).AddTo(dsp.Frame(nil, frame, 512, 1024, 12, 1e-6))
	c.ProcessBlock(block, make([]complex128, len(block)))
	if s := c.Stats(); s.XCorrDetections == 0 || s.EnergyHighDetections == 0 || s.JamTriggers == 0 {
		t.Fatalf("preamble at 12 dB: %+v, want both detectors and the trigger to fire", s)
	}
}
