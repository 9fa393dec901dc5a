package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fixed"
	"repro/internal/jammer"
	"repro/internal/trigger"
	"repro/internal/xcorr"
)

// quietThenBurst feeds n1 low-power samples then n2 high-power samples.
func quietThenBurst(c *Core, n1, n2 int) (txActive int) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n1; i++ {
		c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.003)
	}
	for i := 0; i < n2; i++ {
		if tx := c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.5); tx != 0 {
			txActive++
		}
	}
	return txActive
}

// programEnergyHigh configures a 10 dB energy-high trigger and a short
// jammer burst over the register bus.
func programEnergyHigh(t *testing.T, c *Core, uptimeSamples uint32) {
	t.Helper()
	bus := c.Bus()
	writes := map[uint8]uint32{
		RegEnergyThreshHigh: 1000,
		RegEnergyConfig:     1,
		RegTriggerConfig:    uint32(trigger.EventEnergyHigh) | 1<<12,
		RegTriggerWindow:    0,
		RegJammerWaveform:   uint32(jammer.WaveformWGN),
		RegJammerUptime:     uptimeSamples,
		RegJammerGainAnt:    1000, // unity gain
	}
	for a, v := range writes {
		if err := bus.Write(a, v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnergyTriggeredJamming(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	active := quietThenBurst(c, 500, 400)
	if active == 0 {
		t.Fatal("energy rise did not produce a jamming burst")
	}
	st := c.Stats()
	if st.JamTriggers == 0 || st.EnergyHighDetections == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.JamSamples != uint64(active) {
		t.Errorf("JamSamples=%d but counted %d active TX", st.JamSamples, active)
	}
	if st.Samples != 900 {
		t.Errorf("Samples=%d, want 900", st.Samples)
	}
}

func TestNoJamWithoutTrigger(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	// Constant power: energy differentiator must stay silent.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		if tx := c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.2); tx != 0 {
			t.Fatal("jammed with no energy step")
		}
	}
}

func TestRegisterProgrammedCoefficients(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(3))
	tpl := make([]complex128, xcorr.Length)
	for i := range tpl {
		tpl[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	i64, q64 := xcorr.CoefficientsFromTemplate(tpl)
	iRegs := PackCoefficients(i64)
	qRegs := PackCoefficients(q64)
	for r, v := range iRegs {
		if err := c.Bus().Write(RegXCorrCoefI0+uint8(r), v); err != nil {
			t.Fatal(err)
		}
	}
	for r, v := range qRegs {
		if err := c.Bus().Write(RegXCorrCoefQ0+uint8(r), v); err != nil {
			t.Fatal(err)
		}
	}
	peak := xcorr.IdealPeakMetric(tpl)
	if err := c.Bus().Write(RegXCorrThreshold, peak/2); err != nil {
		t.Fatal(err)
	}
	if err := c.Bus().Write(RegTriggerConfig, uint32(trigger.EventXCorr)|1<<12); err != nil {
		t.Fatal(err)
	}
	if err := c.Bus().Write(RegJammerUptime, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Bus().Write(RegJammerGainAnt, 1000); err != nil {
		t.Fatal(err)
	}

	// Warm up past the correlator holdoff with quiet noise, then send the
	// template: the core must detect and jam.
	for i := 0; i < 200; i++ {
		c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01)
	}
	for _, s := range tpl {
		c.ProcessSample(s * 0.5)
	}
	var jammed bool
	for i := 0; i < 100; i++ {
		if c.ProcessSample(0) != 0 {
			jammed = true
		}
	}
	if !jammed {
		t.Fatal("register-programmed correlator did not trigger jamming")
	}
	if c.Stats().XCorrDetections == 0 {
		t.Error("no xcorr detections counted")
	}
}

func TestPackCoefficientsRoundTrip(t *testing.T) {
	bank := make([]fixed.Coeff3, xcorr.Length)
	for i := range bank {
		bank[i] = fixed.NewCoeff3(i%8 - 4)
	}
	regs := PackCoefficients(bank)
	for i, want := range bank {
		r, k := i/coeffsPerReg, i%coeffsPerReg
		got := fixed.UnpackCoeff3(regs[r] >> (3 * k))
		if got != want {
			t.Fatalf("coefficient %d: %v != %v", i, got, want)
		}
	}
}

func TestFusionAnyORsEvents(t *testing.T) {
	c := New()
	if err := c.SetFusion(FusionAny,
		[]trigger.Event{trigger.EventXCorr, trigger.EventEnergyHigh}, 0); err != nil {
		t.Fatal(err)
	}
	programEnergyHigh(t, c, 50) // rewrites trigger regs to sequence mode
	// Re-apply OR fusion via the register bus (bit 14).
	cfg := uint32(trigger.EventXCorr) | uint32(trigger.EventEnergyHigh)<<4 | 2<<12 | 1<<14
	if err := c.Bus().Write(RegTriggerConfig, cfg); err != nil {
		t.Fatal(err)
	}
	// Energy event alone must fire in OR mode (sequence would wait for
	// xcorr first).
	if active := quietThenBurst(c, 500, 300); active == 0 {
		t.Fatal("OR fusion did not fire on energy alone")
	}
}

func TestSetFusionValidation(t *testing.T) {
	c := New()
	if err := c.SetFusion(FusionSequence, nil, 0); err == nil {
		t.Error("empty events accepted")
	}
	if err := c.SetFusion(FusionSequence, make([]trigger.Event, 4), 0); err == nil {
		t.Error("4 events accepted")
	}
}

func TestResetDatapathKeepsConfig(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	quietThenBurst(c, 400, 200)
	c.ResetDatapath()
	if c.Stats() != (Stats{}) {
		t.Error("stats not cleared")
	}
	if c.Clock().Cycle() != 0 {
		t.Error("clock not cleared")
	}
	// Config survives: a new burst must still trigger.
	if active := quietThenBurst(c, 500, 300); active == 0 {
		t.Error("configuration lost across ResetDatapath")
	}
}

func TestAntennaControlBits(t *testing.T) {
	c := New()
	if err := c.Bus().Write(RegJammerGainAnt, 1000|0xA<<16); err != nil {
		t.Fatal(err)
	}
	if c.antenna != 0xA {
		t.Errorf("antenna bits = %x, want A", c.antenna)
	}
	// The decoded gain scales the transmitted waveform: a unit host stream
	// leaves the jammer at amplitude 1.
	j := c.Jammer()
	if err := j.SetWaveform(jammer.WaveformHostStream); err != nil {
		t.Fatal(err)
	}
	j.SetHostStream([]complex128{1})
	var out complex128
	for i := 0; i <= jammer.InitSamples && out == 0; i++ {
		out = j.Process(fixed.IQ{}, i == 0)
	}
	if out != 1 {
		t.Errorf("jam sample = %v, want 1 (gain 1)", out)
	}
}

func TestTimelinesMatchPaper(t *testing.T) {
	c := New()
	if err := c.Jammer().SetUptimeSamples(2500); err != nil { // 0.1 ms
		t.Fatal(err)
	}
	tl := c.Timelines()
	if tl.TenDet != 1280*time.Nanosecond {
		t.Errorf("TenDet = %v, want 1.28µs", tl.TenDet)
	}
	if tl.TxcorrDet != 2560*time.Nanosecond {
		t.Errorf("TxcorrDet = %v, want 2.56µs", tl.TxcorrDet)
	}
	if tl.TInit != 80*time.Nanosecond {
		t.Errorf("TInit = %v, want 80ns", tl.TInit)
	}
	if tl.TRespEnergy != 1360*time.Nanosecond {
		t.Errorf("TRespEnergy = %v, want 1.36µs", tl.TRespEnergy)
	}
	if tl.TRespXCorr != 2640*time.Nanosecond {
		t.Errorf("TRespXCorr = %v, want 2.64µs", tl.TRespXCorr)
	}
	if tl.TJam != 100*time.Microsecond {
		t.Errorf("TJam = %v, want 100µs", tl.TJam)
	}
}

func TestCoreResourcesSum(t *testing.T) {
	r := New().Resources()
	// xcorr + energy + jammer controller.
	if r.Slices != 2613+1262+860 {
		t.Errorf("total slices = %d", r.Slices)
	}
	if r.DSP48s != 2+6 {
		t.Errorf("total DSP48 = %d", r.DSP48s)
	}
}

func TestUsedRegisterBudget(t *testing.T) {
	// Programming every feature must land within the paper's 24 registers.
	c := New()
	regs := []uint8{
		RegXCorrThreshold, RegEnergyConfig, RegEnergyThreshHigh,
		RegEnergyThreshLow, RegTriggerConfig, RegTriggerWindow,
		RegJammerWaveform, RegJammerUptime, RegJammerDelay, RegJammerGainAnt,
	}
	for r := uint8(0); r < numCoefRegs; r++ {
		regs = append(regs, RegXCorrCoefI0+r, RegXCorrCoefQ0+r)
	}
	seen := map[uint8]bool{}
	for _, r := range regs {
		if seen[r] {
			t.Fatalf("register %d assigned twice", r)
		}
		seen[r] = true
		if err := c.Bus().Write(r, 0); err != nil {
			t.Fatalf("write reg %d: %v", r, err)
		}
	}
	if len(seen) != NumUsedRegisters {
		t.Errorf("%d registers used, want %d", len(seen), NumUsedRegisters)
	}
}

// TestRegisterFuzzRobustness hammers the register bus with arbitrary writes
// and verifies the datapath neither panics nor wedges: whatever garbage the
// host writes, samples keep flowing and a sane reconfiguration afterwards
// restores normal operation.
func TestRegisterFuzzRobustness(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		addr := uint8(rng.Intn(256))
		val := uint32(rng.Uint64())
		err := c.Bus().Write(addr, val)
		if addr == 0 && err == nil {
			t.Fatal("reserved register write accepted")
		}
		if i%100 == 0 {
			// The datapath must stay alive mid-fuzz.
			c.ProcessSample(complex(rng.NormFloat64()*0.1, 0))
		}
	}
	// Recover to a known-good configuration — rewriting every register the
	// fuzz may have corrupted, including the trigger-to-jam delay.
	c.ResetDatapath()
	if err := c.Bus().Write(RegJammerDelay, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Bus().Write(RegXCorrThreshold, 1<<31); err != nil {
		t.Fatal(err)
	}
	programEnergyHigh(t, c, 100)
	if active := quietThenBurst(c, 500, 300); active == 0 {
		t.Fatal("core wedged after register fuzzing")
	}
}

// TestTriggerWindowViaRegisters drives the 2-stage sequence feature through
// the bus end to end.
func TestTriggerWindowViaRegisters(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(7))
	tpl := make([]complex128, xcorr.Length)
	for i := range tpl {
		tpl[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ci, cq := xcorr.CoefficientsFromTemplate(tpl)
	for r, v := range PackCoefficients(ci) {
		if err := c.Bus().Write(RegXCorrCoefI0+uint8(r), v); err != nil {
			t.Fatal(err)
		}
	}
	for r, v := range PackCoefficients(cq) {
		if err := c.Bus().Write(RegXCorrCoefQ0+uint8(r), v); err != nil {
			t.Fatal(err)
		}
	}
	peak := xcorr.IdealPeakMetric(tpl)
	writes := map[uint8]uint32{
		RegXCorrThreshold:   peak / 2,
		RegEnergyThreshHigh: 1000,
		RegEnergyConfig:     1,
		// Sequence: energy-high THEN xcorr within 200 samples.
		RegTriggerConfig: uint32(trigger.EventEnergyHigh) |
			uint32(trigger.EventXCorr)<<4 | 2<<12,
		RegTriggerWindow:  200,
		RegJammerUptime:   50,
		RegJammerGainAnt:  1000,
		RegJammerWaveform: uint32(jammer.WaveformWGN),
	}
	for a, v := range writes {
		if err := c.Bus().Write(a, v); err != nil {
			t.Fatal(err)
		}
	}
	// Quiet, then the template at high power: energy rise fires first,
	// xcorr inside the window completes the sequence.
	for i := 0; i < 500; i++ {
		c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.002)
	}
	for _, s := range tpl {
		c.ProcessSample(s * 0.5)
	}
	jammed := false
	for i := 0; i < 100; i++ {
		if c.ProcessSample(0) != 0 {
			jammed = true
		}
	}
	if !jammed {
		t.Fatal("2-stage register-configured sequence never fired")
	}
}
