package reactivejam

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/wifi"
	"repro/internal/wimax"
)

func TestQuickstartFlow(t *testing.T) {
	f := New()
	if err := f.DetectWiFiShortPreamble(0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SetPersonality(Personality{
		Waveform: WGN, Uptime: 50 * time.Microsecond, Gain: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetSourceRate(wifi.SampleRate); err != nil {
		t.Fatal(err)
	}

	// One WiFi frame in quiet noise: the platform must detect and jam it.
	frame, err := wifi.Modulate(wifi.AppendFCS(make([]byte, 100)),
		wifi.TxConfig{Rate: wifi.Rate24, ScramblerSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	buf := make(dsp.Samples, 512+len(frame)+512)
	copy(buf[512:], frame)
	buf.Scale(0.3)
	rng := rand.New(rand.NewSource(1))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
	}
	tx, err := f.Process(buf)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.XCorrDetections == 0 || st.JamTriggers == 0 {
		t.Fatalf("no detection: %+v", st)
	}
	active := 0
	for _, s := range tx {
		if s != 0 {
			active++
		}
	}
	// 50 µs at 25 MSPS = 1250 samples.
	if active != 1250 {
		t.Errorf("jam burst %d samples, want 1250", active)
	}
	if f.Elapsed() <= 0 {
		t.Error("hardware clock did not advance")
	}
}

func TestEnergyDetectionFlow(t *testing.T) {
	f := New()
	if err := f.DetectEnergyRise(10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SetPersonality(Personality{Waveform: Replay, Uptime: 10 * time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	buf := make(dsp.Samples, 4000)
	for i := 1000; i < 3000; i++ {
		buf[i] = complex(0.4, 0)
	}
	rng := rand.New(rand.NewSource(2))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
	}
	if _, err := f.Process(buf); err != nil {
		t.Fatal(err)
	}
	if f.Stats().EnergyHighDetections == 0 {
		t.Error("energy rise not detected")
	}
}

func TestWiMAXDetectionFlow(t *testing.T) {
	f := New()
	if err := f.Tune(2.608e9); err != nil {
		t.Fatal(err)
	}
	if err := f.DetectWiMAX(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.SetSourceRate(wimax.ActualSampleRate); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SetPersonality(Personality{Waveform: WGN, Uptime: 100 * time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	frame, err := wimax.DownlinkFrame(wimax.Config{CellID: 1, Segment: 0}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := frame[:12*wimax.SymbolLen].Clone().Scale(0.3)
	lead := make(dsp.Samples, 2048)
	buf = append(lead, buf...)
	rng := rand.New(rand.NewSource(3))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
	}
	if _, err := f.Process(buf); err != nil {
		t.Fatal(err)
	}
	if f.Stats().JamTriggers == 0 {
		t.Error("WiMAX downlink not detected")
	}
	if err := f.DetectWiMAX(99, 0); err == nil {
		t.Error("invalid cell ID accepted")
	}
}

func TestPersonalityValidationAndTimelines(t *testing.T) {
	f := New()
	if _, err := f.SetPersonality(Personality{Waveform: Waveform(9)}); err == nil {
		t.Error("bogus waveform accepted")
	}
	if _, err := f.SetPersonality(Personality{Waveform: WGN, Uptime: 100 * time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	tl := f.Timelines()
	if tl.TXInit != 80*time.Nanosecond {
		t.Errorf("TXInit = %v, want 80ns (paper abstract)", tl.TXInit)
	}
	if tl.ResponseXCorr != 2640*time.Nanosecond {
		t.Errorf("ResponseXCorr = %v", tl.ResponseXCorr)
	}
	if tl.JamBurst != 100*time.Microsecond {
		t.Errorf("JamBurst = %v", tl.JamBurst)
	}
}

func TestHostStreamWaveform(t *testing.T) {
	f := New()
	if err := f.DetectEnergyRise(10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SetPersonality(Personality{Waveform: HostStream, Uptime: time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	f.SetHostWaveform([]complex128{0.5, -0.5})
	buf := make(dsp.Samples, 3000)
	for i := 1000; i < 2500; i++ {
		buf[i] = complex(0.5, 0)
	}
	rng := rand.New(rand.NewSource(4))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
	}
	tx, err := f.Process(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []complex128
	for _, s := range tx {
		if s != 0 {
			got = append(got, s)
		}
	}
	if len(got) == 0 {
		t.Fatal("host-stream jammer never transmitted")
	}
	if got[0] != 0.5 {
		t.Errorf("first host-stream sample %v, want 0.5", got[0])
	}
	f.ResetStats()
	if f.Stats().Samples != 0 {
		t.Error("ResetStats incomplete")
	}
}

// TestProcessZeroAllocWarm pins the heap-free stream: once warm, a
// 4096-sample chunk through Framework.Process allocates nothing while
// detecting and jamming. It covers the energy detector at the native rate
// and through the 20 MSPS DDC, and the short-preamble correlator with 100 µs
// WGN bursts at 25 MSPS, the stream-25msps benchmark's shape, in which the
// block datapath skips the disarmed energy differentiator.
func TestProcessZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	step := make(dsp.Samples, 4096)
	for i := range step {
		step[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
		if i%2048 >= 1024 {
			step[i] += complex(0.4, 0)
		}
	}
	preamble := make(dsp.Samples, 4096)
	for i := range preamble {
		preamble[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
	}
	for _, at := range []int{1024, 3072} {
		preamble[at:].Add(dsp.Resample(wifi.ShortPreamble(), 5, 4))
	}
	for _, c := range []struct {
		name     string
		arm      func(*Framework) error
		uptime   time.Duration
		sourceHz int
		chunk    dsp.Samples
	}{
		{"energy", func(f *Framework) error { return f.DetectEnergyRise(10) },
			10 * time.Microsecond, 25_000_000, step},
		{"energy", func(f *Framework) error { return f.DetectEnergyRise(10) },
			10 * time.Microsecond, wifi.SampleRate, step},
		{"wifi-short", func(f *Framework) error { return f.DetectWiFiShortPreamble(0.059) },
			100 * time.Microsecond, 25_000_000, preamble},
	} {
		f := New()
		if err := c.arm(f); err != nil {
			t.Fatal(err)
		}
		if _, err := f.SetPersonality(Personality{Waveform: WGN, Uptime: c.uptime, Gain: 1}); err != nil {
			t.Fatal(err)
		}
		if err := f.SetSourceRate(c.sourceHz); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Process(c.chunk); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := f.Process(c.chunk); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s, source %d Hz: warm Process allocates %v times per 4096-sample chunk, want 0",
				c.name, c.sourceHz, allocs)
		}
		if f.Stats().JamTriggers == 0 {
			t.Errorf("%s, source %d Hz: the chunk never triggered the jammer", c.name, c.sourceHz)
		}
	}
}
