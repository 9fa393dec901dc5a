package impair

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
)

// process runs x through c into a fresh buffer.
func process(c *Chain, x dsp.Samples) dsp.Samples {
	y := make(dsp.Samples, len(x))
	c.ProcessInto(y, x)
	return y
}

func TestTransparentByDefault(t *testing.T) {
	c := New(Config{})
	x := dsp.Samples{1, 1i, -0.5 + 0.25i}
	y := process(c, x)
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatalf("zero config altered sample %d: %v -> %v", i, x[i], y[i])
		}
	}
}

func TestCFORotatesAtConfiguredRate(t *testing.T) {
	c := New(Config{CFOHz: 1000, SampleRate: 1e6})
	// A DC input becomes a tone at exactly CFOHz.
	n := 1000
	x := make(dsp.Samples, n)
	for i := range x {
		x[i] = 1
	}
	y := process(c, x)
	// Phase advance per sample = 2π·1000/1e6.
	want := 2 * math.Pi * 1000 / 1e6
	for i := 1; i < n; i++ {
		d := cmplx.Phase(y[i] * cmplx.Conj(y[i-1]))
		if math.Abs(d-want) > 1e-9 {
			t.Fatalf("sample %d: phase step %v, want %v", i, d, want)
		}
	}
}

func TestIQImbalanceCreatesImage(t *testing.T) {
	c := New(Config{IQGainDB: 1, IQPhaseDeg: 5})
	// A clean positive-frequency tone gains an image at the negative
	// frequency; image rejection should be finite but the direct path
	// dominant.
	x := dsp.Tone(1024, 0.1, 1.0)
	y := process(c, x)
	buf := y.Clone()
	dsp.NewFFTPlan(len(buf)).Forward(buf)
	direct := cmplx.Abs(buf[102])     // +0.1 normalized = bin 102.4 ~ 102
	image := cmplx.Abs(buf[1024-102]) // mirror bin
	if direct < 100*image {
		// Direct must dominate…
		if image <= 0 {
			t.Fatal("no image at all?")
		}
	}
	if image < 1e-6 {
		t.Error("IQ imbalance produced no image tone")
	}
	if direct < image {
		t.Error("image exceeds direct path")
	}
}

func TestDCOffset(t *testing.T) {
	c := New(Config{DCOffset: 0.25 + 0.1i})
	y := process(c, make(dsp.Samples, 16))
	for _, v := range y {
		if v != 0.25+0.1i {
			t.Fatalf("DC offset sample %v", v)
		}
	}
}

func TestPhaseNoiseGrows(t *testing.T) {
	c := New(Config{PhaseNoiseRadRMS: 0.01, SampleRate: 1e6, Seed: 1})
	x := make(dsp.Samples, 10000)
	for i := range x {
		x[i] = 1
	}
	y := process(c, x)
	early := cmplx.Phase(y[10])
	late := cmplx.Phase(y[9999])
	if math.Abs(late-early) < 1e-6 {
		t.Error("phase noise did not accumulate")
	}
}

func TestResetRestoresDeterminism(t *testing.T) {
	cfg := Config{CFOHz: 500, SampleRate: 1e6, PhaseNoiseRadRMS: 0.01, Seed: 7}
	c := New(cfg)
	x := dsp.Tone(256, 0.05, 1.0)
	a := process(c, x)
	// A second chain from the same config, in place this time: dst
	// aliasing x must give the same output.
	c = New(cfg)
	b := x.Clone()
	c.ProcessInto(b, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same config did not give the same output")
		}
	}
}

func TestClockOffsetInterpolates(t *testing.T) {
	c := New(Config{ClockOffsetPPM: 1000, SampleRate: 1e6}) // exaggerated
	x := dsp.Tone(5000, 0.01, 1.0)
	y := process(c, x)
	// Energy preserved approximately.
	if math.Abs(y.Power()-x.Power()) > 0.05 {
		t.Errorf("clock-offset interpolation changed power: %v vs %v",
			y.Power(), x.Power())
	}
}

func TestTypicalUSRPValues(t *testing.T) {
	cfg := TypicalUSRP(2.484e9, 20e6, 1)
	if cfg.CFOHz < 4000 || cfg.CFOHz > 6000 {
		t.Errorf("CFO %v Hz for 2 ppm at 2.484 GHz", cfg.CFOHz)
	}
	if cfg.SampleRate != 20e6 {
		t.Error("sample rate not propagated")
	}
}
