package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
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

// A short measurement yields one finite overhead per pair on each input;
// the bound itself is judged by `make overhead` at full windows.
func TestOverheadSectionShort(t *testing.T) {
	for _, in := range overheadInputs {
		pcts, err := overheadSection(in.build(), 2, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(pcts) != 2 {
			t.Fatalf("%s: got %d pairs, want 2", in.name, len(pcts))
		}
		for i, p := range pcts {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Errorf("%s: pair %d overhead = %v, want finite", in.name, i, p)
			}
		}
	}
}

// The gate's core detects and triggers nothing on its quiet-span input, and
// on every block of its engaged input both detectors and the trigger fire
// and the engagement closes.
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
	block := engagedInput()
	if len(block) != len(buf) {
		t.Fatalf("engaged input has %d samples, the quiet one %d", len(block), len(buf))
	}
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	c.SetRecorder(live)
	for i := 1; i <= 3; i++ {
		prev := c.Stats()
		c.ProcessBlock(block, tx)
		s := c.Stats()
		if s.XCorrDetections == prev.XCorrDetections || s.EnergyHighDetections == prev.EnergyHighDetections ||
			s.JamTriggers == prev.JamTriggers {
			t.Fatalf("engaged block %d: %+v, want both detectors and the trigger to fire", i, s)
		}
		if got := live.Snapshot().Engagements; got != uint64(i) {
			t.Fatalf("engaged block %d: %d engagements closed, want %d", i, got, i)
		}
	}
}
