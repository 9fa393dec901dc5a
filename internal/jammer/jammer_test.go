package jammer

import (
	"math"
	"testing"

	"repro/internal/fixed"
)

// countTriggers counts the triggers the controller accepts: every one
// leaves the idle phase.
func countTriggers(c *Controller) *int {
	n := new(int)
	c.OnPhase(func(from, _ Phase) {
		if from == PhaseIdle {
			*n++
		}
	})
	return n
}

// run advances the controller n ticks with no trigger and quiet RX,
// collecting TX samples.
func run(c *Controller, n int, trigFirst bool) []complex128 {
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		out[i] = c.Process(fixed.IQ{}, trigFirst && i == 0)
	}
	return out
}

func TestInitLatencyIs80ns(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(10); err != nil {
		t.Fatal(err)
	}
	out := run(c, 20, true)
	// Trigger at tick 0; Tinit = 8 cycles = 2 samples; first RF at tick 2.
	for i := 0; i < InitSamples; i++ {
		if out[i] != 0 {
			t.Errorf("TX active at tick %d, before DUC fill", i)
		}
	}
	if out[InitSamples] == 0 {
		t.Errorf("no TX at tick %d (expected first jam sample)", InitSamples)
	}
}

func TestUptimeExact(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(5); err != nil {
		t.Fatal(err)
	}
	triggers := countTriggers(c)
	out := run(c, 30, true)
	active := 0
	for _, s := range out {
		if s != 0 {
			active++
		}
	}
	if active != 5 {
		t.Errorf("jammed for %d samples, want 5", active)
	}
	if *triggers != 1 {
		t.Errorf("%d triggers, want 1", *triggers)
	}
}

func TestUptimeValidation(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(0); err == nil {
		t.Error("0 uptime accepted")
	}
	if err := c.SetUptimeSamples(1 << 33); err == nil {
		t.Error("2^33 uptime accepted (register is 32-bit)")
	}
	if err := c.SetUptimeSamples(1); err != nil {
		t.Error("minimum 1-sample (40ns) burst rejected")
	}
	if err := c.SetUptimeSamples(1 << 32); err != nil {
		t.Error("maximum burst rejected")
	}
}

func TestSurgicalDelay(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(3); err != nil {
		t.Fatal(err)
	}
	c.SetDelaySamples(10)
	out := run(c, 30, true)
	firstActive := -1
	for i, s := range out {
		if s != 0 {
			firstActive = i
			break
		}
	}
	want := 10 + InitSamples
	if firstActive != want {
		t.Errorf("first jam sample at tick %d, want %d (delay+init)", firstActive, want)
	}
}

func TestRetriggerIgnoredWhileBusy(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(20); err != nil {
		t.Fatal(err)
	}
	triggers := countTriggers(c)
	for i := 0; i < 25; i++ {
		c.Process(fixed.IQ{}, true) // continuous triggering
	}
	if *triggers != 2 { // one at start, one after the 20-sample burst ends
		t.Errorf("%d triggers, want 2", *triggers)
	}
}

func TestWGNPowerAndGain(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(1 << 16); err != nil {
		t.Fatal(err)
	}
	c.SetGain(2)
	var sum float64
	n := 0
	c.Process(fixed.IQ{}, true)
	for i := 0; i < 40000; i++ {
		s := c.Process(fixed.IQ{}, false)
		if s != 0 {
			sum += real(s)*real(s) + imag(s)*imag(s)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no WGN emitted")
	}
	power := sum / float64(n)
	if math.Abs(power-4) > 0.2 { // gain² × unit power
		t.Errorf("WGN power = %v, want ~4", power)
	}
}

func TestReplayWaveform(t *testing.T) {
	c := New()
	if err := c.SetWaveform(WaveformReplay); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUptimeSamples(8); err != nil {
		t.Fatal(err)
	}
	// Feed a recognizable RX ramp while idle.
	for i := 1; i <= 4; i++ {
		c.Process(fixed.Quantize(complex(float64(i)/10, 0)), false)
	}
	// The trigger tick consumes the first init cycle and captures one more
	// (zero) RX sample; the remaining init tick captures another. At jam
	// start the buffer holds [.1 .2 .3 .4 0 0], replayed oldest-first and
	// cycling: 8 samples = [.1 .2 .3 .4 0 0 .1 .2].
	c.Process(fixed.IQ{}, true)
	for i := 0; i < InitSamples-1; i++ {
		if s := c.Process(fixed.IQ{}, false); s != 0 {
			t.Fatalf("TX during init tick %d", i)
		}
	}
	want := []float64{0.1, 0.2, 0.3, 0.4, 0, 0, 0.1, 0.2}
	for i, w := range want {
		got := real(c.Process(fixed.IQ{}, false))
		if math.Abs(got-w) > 1e-3 {
			t.Errorf("replay sample %d = %v, want %v", i, got, w)
		}
	}
	if s := c.Process(fixed.IQ{}, false); s != 0 {
		t.Error("TX continued past uptime")
	}
}

func TestHostStreamWaveform(t *testing.T) {
	c := New()
	if err := c.SetWaveform(WaveformHostStream); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUptimeSamples(6); err != nil {
		t.Fatal(err)
	}
	c.SetHostStream([]complex128{1, 2, 3})
	c.Process(fixed.IQ{}, true)
	var got []complex128
	for i := 0; i < 10; i++ {
		if s := c.Process(fixed.IQ{}, false); s != 0 {
			got = append(got, s)
		}
	}
	want := []complex128{1, 2, 3, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHostStreamEmptyBufferSilent(t *testing.T) {
	c := New()
	if err := c.SetWaveform(WaveformHostStream); err != nil {
		t.Fatal(err)
	}
	out := run(c, 20, true)
	for i, s := range out {
		if s != 0 {
			t.Fatalf("tick %d: TX with empty host buffer", i)
		}
	}
}

func TestSetWaveformValidation(t *testing.T) {
	c := New()
	if err := c.SetWaveform(Waveform(9)); err == nil {
		t.Error("bogus waveform accepted")
	}
	if c.waveform != WaveformWGN {
		t.Error("failed SetWaveform changed state")
	}
}

func TestResetAbortsJamming(t *testing.T) {
	c := New()
	if err := c.SetUptimeSamples(1000); err != nil {
		t.Fatal(err)
	}
	run(c, 10, true)
	if c.st != PhaseJamming {
		t.Fatal("should be jamming")
	}
	c.Reset()
	if c.st != PhaseIdle || c.remaining != 0 || c.replayLen != 0 {
		t.Error("Reset incomplete")
	}
	out := run(c, 10, false)
	for _, s := range out {
		if s != 0 {
			t.Error("TX after reset without trigger")
		}
	}
}

func TestWaveformStrings(t *testing.T) {
	cases := map[Waveform]string{
		WaveformWGN: "wgn", WaveformReplay: "replay",
		WaveformHostStream: "host-stream", Waveform(7): "waveform(7)",
	}
	for w, want := range cases {
		if w.String() != want {
			t.Errorf("%d.String() = %q", w, w.String())
		}
	}
}

func TestLFSRNonDegenerate(t *testing.T) {
	var l lfsrGaussian
	l.seed(0) // must escape the absorbing state
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		seen[l.next()] = true
	}
	if len(seen) < 990 {
		t.Errorf("LFSR produced only %d distinct values in 1000", len(seen))
	}
}

func TestWGNZeroMean(t *testing.T) {
	var l lfsrGaussian
	l.seed(0xACE1)
	var mean complex128
	const n = 50000
	for i := 0; i < n; i++ {
		mean += l.sample()
	}
	mean /= n
	if math.Hypot(real(mean), imag(mean)) > 0.02 {
		t.Errorf("WGN mean = %v", mean)
	}
}
