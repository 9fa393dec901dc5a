package fpga

import (
	"testing"
	"time"
)

func TestClockConstants(t *testing.T) {
	if CyclesPerSample != 4 {
		t.Fatalf("CyclesPerSample = %d, want 4", CyclesPerSample)
	}
	if ClockPeriod != 10*time.Nanosecond {
		t.Fatalf("ClockPeriod = %v, want 10ns", ClockPeriod)
	}
	if SamplePeriod != 40*time.Nanosecond {
		t.Fatalf("SamplePeriod = %v, want 40ns", SamplePeriod)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.AdvanceSamples(10)
	if c.Cycle() != 40 {
		t.Errorf("after 10 samples: cycle=%d", c.Cycle())
	}
	c.cycle.Add(3)
	if c.Now() != 430*time.Nanosecond {
		t.Errorf("Now = %v, want 430ns", c.Now())
	}
}

func TestDurationConversions(t *testing.T) {
	// Paper §2.4: jamming duration from 1 sample (40ns) up to 2^32 samples.
	if d := SamplesToDuration(1); d != 40*time.Nanosecond {
		t.Errorf("1 sample = %v", d)
	}
	if d := CyclesToDuration(8); d != 80*time.Nanosecond {
		t.Errorf("8 cycles = %v, want 80ns (paper Tinit)", d)
	}
	if s := DurationToSamples(100 * time.Microsecond); s != 2500 {
		t.Errorf("100us = %d samples, want 2500", s)
	}
	if DurationToSamples(-time.Second) != 0 {
		t.Error("negative duration should give 0 samples")
	}
	// 2^32 samples is about 172s > 40s claimed; 40s fits in the range.
	if s := DurationToSamples(40 * time.Second); s != 1_000_000_000 {
		t.Errorf("40s = %d samples", s)
	}
}

func TestResourcesAddString(t *testing.T) {
	a := Resources{Slices: 2613, FFs: 2647, BRAMs: 12, LUTs: 2818, DSP48s: 2}
	b := Resources{Slices: 1262, FFs: 1313, LUTs: 2513, DSP48s: 6}
	sum := a.Add(b)
	if sum.Slices != 3875 || sum.FFs != 3960 || sum.BRAMs != 12 ||
		sum.LUTs != 5331 || sum.DSP48s != 8 {
		t.Errorf("Add = %+v", sum)
	}
	if s := a.String(); s != "Slices:2613 FFs:2647 BRAMs:12 LUTs:2818 IOBs:0 DSP_48:2" {
		t.Errorf("String = %q", s)
	}
}
