package energy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixed"
)

// feed streams amplitude-a DC samples for n ticks, returning counts of
// high/low trigger samples.
func feed(d *Differentiator, a float64, n int) (highs, lows int) {
	s := fixed.Quantize(complex(a, 0))
	for i := 0; i < n; i++ {
		h, l := d.Process(s)
		if h {
			highs++
		}
		if l {
			lows++
		}
	}
	return highs, lows
}

func TestThresholdValidation(t *testing.T) {
	d := New()
	for _, db := range []float64{2.9, 30.1, -5, 0} {
		if err := d.SetHighThresholdDB(db); err == nil {
			t.Errorf("threshold %v dB accepted", db)
		}
		if err := d.SetLowThresholdDB(db); err == nil {
			t.Errorf("low threshold %v dB accepted", db)
		}
	}
	if err := d.SetHighThresholdDB(3); err != nil {
		t.Error(err)
	}
	if err := d.SetHighThresholdDB(30); err != nil {
		t.Error(err)
	}
}

func TestEnergyRiseTriggersHigh(t *testing.T) {
	d := New()
	if err := d.SetHighThresholdDB(10); err != nil {
		t.Fatal(err)
	}
	// Quiet noise floor, then a 20 dB step.
	feed(d, 0.01, 500)
	h, _ := feed(d, 0.1, 200)
	if h == 0 {
		t.Error("20 dB rise did not trigger at a 10 dB threshold")
	}
}

func TestSmallRiseDoesNotTrigger(t *testing.T) {
	d := New()
	if err := d.SetHighThresholdDB(10); err != nil {
		t.Fatal(err)
	}
	// 6 dB step is below the 10 dB threshold.
	feed(d, 0.05, 500)
	h, _ := feed(d, 0.1, 200)
	if h != 0 {
		t.Errorf("6 dB rise triggered %d times at a 10 dB threshold", h)
	}
}

func TestEnergyFallTriggersLow(t *testing.T) {
	d := New()
	if err := d.SetLowThresholdDB(10); err != nil {
		t.Fatal(err)
	}
	feed(d, 0.2, 500)
	_, l := feed(d, 0.005, 200)
	if l == 0 {
		t.Error("energy fall did not trigger low")
	}
}

func TestConstantPowerNeverTriggers(t *testing.T) {
	d := New()
	if err := d.SetHighThresholdDB(3); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLowThresholdDB(3); err != nil {
		t.Fatal(err)
	}
	h, l := feed(d, 0.5, 5000)
	if h != 0 || l != 0 {
		t.Errorf("constant power triggered: %d high, %d low", h, l)
	}
}

func TestConstantPowerPropertyAnyAmplitude(t *testing.T) {
	f := func(ampSel uint8, dbSel uint8) bool {
		amp := 0.001 + 0.998*float64(ampSel)/255
		db := 3 + 27*float64(dbSel)/255
		d := New()
		if d.SetHighThresholdDB(db) != nil || d.SetLowThresholdDB(db) != nil {
			return false
		}
		h, l := feed(d, amp, 1000)
		return h == 0 && l == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMovingSumMatchesBruteForce(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(1))
	var hist []uint64
	for i := 0; i < 500; i++ {
		s := fixed.Quantize(complex(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2))
		hist = append(hist, s.Energy())
		d.Process(s)
		var want uint64
		start := max(0, len(hist)-WindowLength)
		for _, e := range hist[start:] {
			want += e
		}
		if d.sum != want {
			t.Fatalf("sample %d: moving sum %d != brute force %d", i, d.sum, want)
		}
	}
}

func TestDisabledDetectorsNeverFire(t *testing.T) {
	d := New()
	// No thresholds set at all.
	feed(d, 0.001, 300)
	h, l := feed(d, 0.9, 300)
	if h != 0 || l != 0 {
		t.Error("disabled detector fired")
	}
	// Enable then disable.
	if err := d.SetHighThresholdDB(5); err != nil {
		t.Fatal(err)
	}
	d.DisableHigh()
	d.Reset()
	feed(d, 0.001, 300)
	h, _ = feed(d, 0.9, 300)
	if h != 0 {
		t.Error("DisableHigh did not stick")
	}
}

func TestDetectionLatencyWithinWindow(t *testing.T) {
	// Paper §3.1: an energy-high detection takes at most 32 samples from
	// the start of a strong transmission.
	d := New()
	if err := d.SetHighThresholdDB(10); err != nil {
		t.Fatal(err)
	}
	feed(d, 0.01, 500)
	s := fixed.Quantize(complex(0.9, 0))
	for i := 0; i < WindowLength; i++ {
		if h, _ := d.Process(s); h {
			if i > WindowLength-1 {
				t.Errorf("latency %d samples > %d", i, WindowLength)
			}
			return
		}
	}
	t.Errorf("strong signal not detected within %d samples", WindowLength)
}

func TestResetClearsState(t *testing.T) {
	d := New()
	if err := d.SetHighThresholdDB(10); err != nil {
		t.Fatal(err)
	}
	feed(d, 0.9, 300)
	d.Reset()
	if d.sum != 0 {
		t.Error("Reset did not clear sum")
	}
	// After reset, the warmup holdoff must apply again: no triggers during
	// the first WindowLength+CompareDelay samples even on a strong signal.
	s := fixed.Quantize(complex(0.9, 0))
	for i := 0; i < WindowLength+CompareDelay; i++ {
		if h, _ := d.Process(s); h {
			t.Fatalf("triggered during post-reset warmup at %d", i)
		}
	}
}

func TestResourcesMatchPaper(t *testing.T) {
	r := New().Resources()
	if r.Slices != 1262 || r.FFs != 1313 || r.BRAMs != 0 || r.LUTs != 2513 || r.DSP48s != 6 {
		t.Errorf("Resources = %+v, want paper Fig. 4 inset", r)
	}
}

func TestDetectionCyclesConstant(t *testing.T) {
	// Paper §3.1: Ten_det < 1.28 µs = 128 cycles.
	if DetectionCycles != 128 {
		t.Errorf("DetectionCycles = %d, want 128", DetectionCycles)
	}
}
