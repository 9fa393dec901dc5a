package host

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/jammer"
	"repro/internal/trigger"
	"repro/internal/wimax"
	"repro/internal/xcorr"
)

func TestProgramCorrelatorLatencyAndEffect(t *testing.T) {
	c := core.New()
	h := New(c)
	rng := rand.New(rand.NewSource(1))
	tpl := make([]complex128, xcorr.Length)
	for i := range tpl {
		tpl[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	d, err := h.ProgramCorrelator(tpl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 14 coefficient registers + 1 threshold = 15 writes.
	if want := 15 * fpga.RegWriteLatency; d != want {
		t.Errorf("latency %v, want %v", d, want)
	}
	if v, _ := c.Bus().Read(core.RegXCorrThreshold); v == 0 {
		t.Error("threshold not programmed")
	}
	// The programmed correlator must trigger on its own template.
	if _, err := h.ProgramTrigger(core.FusionSequence,
		[]trigger.Event{trigger.EventXCorr}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01)
	}
	for _, s := range tpl {
		c.ProcessSample(s)
	}
	if c.Stats().XCorrDetections == 0 {
		t.Error("programmed template did not detect itself")
	}
}

func TestProgramCorrelatorValidation(t *testing.T) {
	h := New(core.New())
	tpl := make([]complex128, xcorr.Length)
	tpl[0] = 1
	if _, err := h.ProgramCorrelator(tpl, 0); err == nil {
		t.Error("zero threshold fraction accepted")
	}
	if _, err := h.ProgramCorrelator(tpl, 1.5); err == nil {
		t.Error(">1 threshold fraction accepted")
	}
}

func TestProgramEnergy(t *testing.T) {
	c := core.New()
	h := New(c)
	d, err := h.ProgramEnergy(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3*fpga.RegWriteLatency {
		t.Errorf("latency %v", d)
	}
	v, _ := c.Bus().Read(core.RegEnergyThreshHigh)
	if v != 1000 {
		t.Errorf("high threshold reg = %d, want 1000 centi-dB", v)
	}
	cfg, _ := c.Bus().Read(core.RegEnergyConfig)
	if cfg != 1 {
		t.Errorf("config = %b, want high-only", cfg)
	}
}

func TestProgramTriggerValidation(t *testing.T) {
	h := New(core.New())
	if _, err := h.ProgramTrigger(core.FusionAny, nil, 0); err == nil {
		t.Error("no events accepted")
	}
	if _, err := h.ProgramTrigger(core.FusionAny, make([]trigger.Event, 4), 0); err == nil {
		t.Error("too many events accepted")
	}
}

func TestProgramJammerPersonalities(t *testing.T) {
	c := core.New()
	h := New(c)
	d, err := h.ProgramJammer(ReactiveLong)
	if err != nil {
		t.Fatal(err)
	}
	// 4 registers — the personality switch costs ~1.2 µs of bus time, the
	// "hundreds of ns" per-setting latency of §4.3.
	if d != 4*fpga.RegWriteLatency {
		t.Errorf("switch latency %v", d)
	}
	if got := c.Jammer().UptimeSamples(); got != 2500 {
		t.Errorf("0.1ms uptime = %d samples, want 2500", got)
	}
	if _, err := h.ProgramJammer(ReactiveShort); err != nil {
		t.Fatal(err)
	}
	if got := c.Jammer().UptimeSamples(); got != 250 {
		t.Errorf("0.01ms uptime = %d samples, want 250", got)
	}
	if _, err := h.ProgramJammer(Continuous); err != nil {
		t.Fatal(err)
	}
	if got := c.Jammer().UptimeSamples(); got != 1_000_000_000 {
		t.Errorf("continuous uptime = %d samples", got)
	}
	if v, _ := c.Bus().Read(core.RegJammerWaveform); jammer.Waveform(v) != jammer.WaveformWGN {
		t.Error("waveform not programmed")
	}
}

func TestProgramJammerValidation(t *testing.T) {
	h := New(core.New())
	if _, err := h.ProgramJammer(Personality{Gain: -1}); err == nil {
		t.Error("negative gain accepted")
	}
	if _, err := h.ProgramJammer(Personality{Gain: 100}); err == nil {
		t.Error("unencodable gain accepted")
	}
	// Zero uptime clamps to the 1-sample minimum rather than failing.
	c := core.New()
	h2 := New(c)
	if _, err := h2.ProgramJammer(Personality{Gain: 1}); err != nil {
		t.Fatal(err)
	}
	if c.Jammer().UptimeSamples() != 1 {
		t.Errorf("zero uptime clamped to %d", c.Jammer().UptimeSamples())
	}
}

func TestTemplatesHaveWindowLength(t *testing.T) {
	if n := len(WiFiLongTemplate()); n != xcorr.Length {
		t.Errorf("long template %d samples", n)
	}
	if n := len(WiFiShortTemplate()); n != xcorr.Length {
		t.Errorf("short template %d samples", n)
	}
	tpl, err := WiMAXTemplate(wimax.Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tpl) != xcorr.Length {
		t.Errorf("wimax template %d samples", len(tpl))
	}
	if _, err := WiMAXTemplate(wimax.Config{CellID: 99}); err == nil {
		t.Error("bad wimax config accepted")
	}
}

func TestTemplatesNonTrivial(t *testing.T) {
	for name, tpl := range map[string][]complex128{
		"long":  WiFiLongTemplate(),
		"short": WiFiShortTemplate(),
	} {
		var energy float64
		for _, s := range tpl {
			energy += real(s)*real(s) + imag(s)*imag(s)
		}
		if energy < 1 {
			t.Errorf("%s template nearly empty (energy %v)", name, energy)
		}
	}
}

func TestPersonalitySwitchIsSubMillisecond(t *testing.T) {
	// §4.3: "On-the-fly jamming personalities can be changed with a small
	// latency ... (hundreds of ns)" per register; the full switch must stay
	// far below a frame time.
	h := New(core.New())
	d, err := h.ProgramJammer(ReactiveShort)
	if err != nil {
		t.Fatal(err)
	}
	if d > 10*time.Microsecond {
		t.Errorf("personality switch took %v", d)
	}
}

func TestProgramCorrelatorFA(t *testing.T) {
	c := core.New()
	h := New(c)
	tpl := WiFiLongTemplate()
	d, err := h.ProgramCorrelatorFA(tpl, 0.52)
	if err != nil {
		t.Fatal(err)
	}
	if d != 15*fpga.RegWriteLatency {
		t.Errorf("latency %v", d)
	}
	i, q := xcorr.CoefficientsFromTemplate(tpl)
	want := xcorr.ThresholdForFARate(i, q, 0.52)
	if got, _ := c.Bus().Read(core.RegXCorrThreshold); got != want {
		t.Errorf("threshold %d, want %d", got, want)
	}
	if _, err := h.ProgramCorrelatorFA(tpl, 0); err == nil {
		t.Error("zero FA target accepted")
	}
	if _, err := h.ProgramCorrelatorFA(tpl, -1); err == nil {
		t.Error("negative FA target accepted")
	}
}

func TestProgramEnergyBothDirections(t *testing.T) {
	c := core.New()
	h := New(c)
	if _, err := h.ProgramEnergy(10, 6); err != nil {
		t.Fatal(err)
	}
	cfg, _ := c.Bus().Read(core.RegEnergyConfig)
	if cfg != 3 {
		t.Errorf("config %b, want both enabled", cfg)
	}
	if _, err := h.ProgramEnergy(0, 0); err != nil {
		t.Fatal(err)
	}
	cfg, _ = c.Bus().Read(core.RegEnergyConfig)
	if cfg != 0 {
		t.Errorf("config %b, want disabled", cfg)
	}
}

func TestRawRateTemplates(t *testing.T) {
	if n := len(WiFiLongTemplateRawRate()); n != xcorr.Length {
		t.Errorf("raw long template %d samples", n)
	}
	if n := len(WiFiBTemplate()); n != xcorr.Length {
		t.Errorf("802.11b template %d samples", n)
	}
}

func TestProgramJammerUptimeClampHigh(t *testing.T) {
	c := core.New()
	h := New(c)
	if _, err := h.ProgramJammer(Personality{Gain: 1, Uptime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if c.Jammer().UptimeSamples() != 1<<32-1 {
		t.Errorf("hour-long uptime clamped to %d", c.Jammer().UptimeSamples())
	}
}

// writeLog attaches to c's register bus and returns the log of every write
// that follows, as (address, value) pairs.
func writeLog(c *core.Core) *[][2]uint32 {
	var log [][2]uint32
	c.Bus().WatchAll(func(addr uint8, v uint32) {
		log = append(log, [2]uint32{uint32(addr), v})
	})
	return &log
}

// registers returns the whole user register file of c.
func registers(t *testing.T, c *core.Core) [fpga.NumUserRegisters]uint32 {
	t.Helper()
	var regs [fpga.NumUserRegisters]uint32
	for a := 1; a < fpga.NumUserRegisters; a++ {
		v, err := c.Bus().Read(uint8(a))
		if err != nil {
			t.Fatal(err)
		}
		regs[a] = v
	}
	return regs
}

// TestArmMatchesExplicitSequence pins Arm to the hand-written register
// sequences it replaced: for each detector shape, the same writes in the
// same order, leaving the same register file.
func TestArmMatchesExplicitSequence(t *testing.T) {
	tpl := WiFiShortTemplate()
	for _, c := range []struct {
		name     string
		d        Detector
		explicit func(h *Host) error
	}{
		{"energy", Detector{EnergyThresholdDB: EnergyRiseDB}, func(h *Host) error {
			if _, err := h.ProgramEnergy(EnergyRiseDB, 0); err != nil {
				return err
			}
			_, err := h.ProgramTrigger(core.FusionSequence,
				[]trigger.Event{trigger.EventEnergyHigh}, 0)
			return err
		}},
		{"template-frac", Detector{Template: tpl, ThresholdFrac: 0.55}, func(h *Host) error {
			if _, err := h.ProgramCorrelator(tpl, 0.55); err != nil {
				return err
			}
			_, err := h.ProgramTrigger(core.FusionSequence,
				[]trigger.Event{trigger.EventXCorr}, 0)
			return err
		}},
		{"template-fa", Detector{Template: tpl, FATargetPerSec: 0.059}, func(h *Host) error {
			if _, err := h.ProgramCorrelatorFA(tpl, 0.059); err != nil {
				return err
			}
			_, err := h.ProgramTrigger(core.FusionSequence,
				[]trigger.Event{trigger.EventXCorr}, 0)
			return err
		}},
		{"template-energy", Detector{Template: tpl, ThresholdFrac: WiMAXThresholdFrac,
			EnergyThresholdDB: EnergyRiseDB}, func(h *Host) error {
			if _, err := h.ProgramCorrelator(tpl, WiMAXThresholdFrac); err != nil {
				return err
			}
			if _, err := h.ProgramEnergy(EnergyRiseDB, 0); err != nil {
				return err
			}
			_, err := h.ProgramTrigger(core.FusionAny,
				[]trigger.Event{trigger.EventXCorr, trigger.EventEnergyHigh}, 0)
			return err
		}},
	} {
		armed, want := core.New(), core.New()
		armedLog, wantLog := writeLog(armed), writeLog(want)
		if err := New(armed).Arm(c.d); err != nil {
			t.Fatalf("%s: Arm: %v", c.name, err)
		}
		if err := c.explicit(New(want)); err != nil {
			t.Fatalf("%s: explicit sequence: %v", c.name, err)
		}
		if !reflect.DeepEqual(*armedLog, *wantLog) {
			t.Errorf("%s: Arm wrote %v, explicit sequence %v", c.name, *armedLog, *wantLog)
		}
		if registers(t, armed) != registers(t, want) {
			t.Errorf("%s: register files differ", c.name)
		}
	}
	for _, d := range []Detector{{}, {ThresholdFrac: 0.5, FATargetPerSec: 1}} {
		if err := New(core.New()).Arm(d); err == nil {
			t.Errorf("Arm(%+v) with no detector accepted", d)
		}
	}
	// A template with neither threshold names the false-alarm target.
	if err := New(core.New()).Arm(Detector{Template: tpl}); err == nil ||
		!strings.Contains(err.Error(), "false-alarm target") {
		t.Errorf("Arm with a template and no threshold: %v", err)
	}
}
