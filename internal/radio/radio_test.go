package radio

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fpga"
)

func TestTuningRange(t *testing.T) {
	r := New()
	if r.CenterFreq() != 2.484e9 {
		t.Errorf("default center %v, want WiFi channel 14", r.CenterFreq())
	}
	if err := r.Tune(2.608e9); err != nil { // the paper's WiMAX frequency
		t.Error(err)
	}
	if err := r.Tune(100e6); err == nil {
		t.Error("below SBX range accepted")
	}
	if err := r.Tune(5e9); err == nil {
		t.Error("above SBX range accepted")
	}
}

func TestGainValidation(t *testing.T) {
	r := New()
	if err := r.SetRXGain(10); err != nil || r.RXGain() != 10 {
		t.Error("RX gain set failed")
	}
	if err := r.SetTXGain(31.5); err != nil || r.TXGain() != 31.5 {
		t.Error("TX gain set failed")
	}
	if err := r.SetRXGain(-1); err == nil {
		t.Error("negative gain accepted")
	}
	if err := r.SetTXGain(40); err == nil {
		t.Error("gain above range accepted")
	}
}

func TestProcessRequiresStart(t *testing.T) {
	r := New()
	if _, err := r.Process(make(dsp.Samples, 10)); err == nil {
		t.Error("Process before Start accepted")
	}
	r.Start()
	if !r.Started() {
		t.Error("Started flag")
	}
	if _, err := r.Process(make(dsp.Samples, 10)); err != nil {
		t.Error(err)
	}
}

func TestSourceRateResampling(t *testing.T) {
	r := New()
	r.Start()
	if err := r.SetSourceRate(0); err == nil {
		t.Error("zero source rate accepted")
	}
	// 20 MSPS source: 1000 input samples -> ~1250 at 25 MSPS.
	if err := r.SetSourceRate(20_000_000); err != nil {
		t.Fatal(err)
	}
	out, err := r.Process(make(dsp.Samples, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 1248 || len(out) > 1252 {
		t.Errorf("resampled to %d samples, want ~1250", len(out))
	}
	// Native rate: passthrough length.
	if err := r.SetSourceRate(fpga.SampleRateHz); err != nil {
		t.Fatal(err)
	}
	out, err = r.Process(make(dsp.Samples, 500))
	if err != nil || len(out) != 500 {
		t.Errorf("native rate gave %d samples, %v", len(out), err)
	}
}

func TestRXGainAffectsDetection(t *testing.T) {
	// A weak burst that the core's quantizer would floor at 0 dB RX gain
	// becomes detectable with +30 dB.
	makeRadio := func(gain float64) *N210 {
		r := New()
		if err := r.SetRXGain(gain); err != nil {
			t.Fatal(err)
		}
		bus := r.Core().Bus()
		for a, v := range map[uint8]uint32{
			16: 1, 17: 1000, // energy high 10 dB
			19: 2 | 1<<12, // single-stage energy-high trigger
			22: 100, 21: 0, 24: 1000,
		} {
			if err := bus.Write(a, v); err != nil {
				t.Fatal(err)
			}
		}
		r.Start()
		return r
	}
	burst := make(dsp.Samples, 2000)
	for i := 500; i < 1500; i++ {
		burst[i] = complex(2e-4, 0) // ~6 LSB at full scale
	}
	low := makeRadio(0)
	if _, err := low.Process(burst); err != nil {
		t.Fatal(err)
	}
	high := makeRadio(30)
	if _, err := high.Process(burst); err != nil {
		t.Fatal(err)
	}
	if high.Core().Stats().EnergyHighDetections == 0 {
		t.Error("30 dB RX gain: burst not detected")
	}
	if low.Core().Stats().EnergyHighDetections > high.Core().Stats().EnergyHighDetections {
		t.Error("gain reduced detectability?")
	}
}

func TestTXGainScalesOutput(t *testing.T) {
	r := New()
	if err := r.SetTXGain(20); err != nil {
		t.Fatal(err)
	}
	bus := r.Core().Bus()
	for a, v := range map[uint8]uint32{
		16: 1, 17: 600,
		19: 2 | 1<<12,
		22: 500, 21: 0, 24: 1000,
	} {
		if err := bus.Write(a, v); err != nil {
			t.Fatal(err)
		}
	}
	r.Start()
	// Quiet then loud to fire the energy trigger.
	in := make(dsp.Samples, 3000)
	for i := 1000; i < 3000; i++ {
		in[i] = complex(0.5, 0)
	}
	out, err := r.Process(in)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, s := range out {
		if a := math.Hypot(real(s), imag(s)); a > peak {
			peak = a
		}
	}
	if peak < 3 { // WGN unit power × 10 amplitude gain
		t.Errorf("TX peak %v with +20 dB gain, expected >3", peak)
	}
}

// TestProcessOverwritesReusedTXBuffer pins the transmit-buffer contract:
// Process hands out the radio's own buffer and the next call writes every
// sample of it. The buffer is poisoned with NaN between calls, and the
// next call must still equal, bit for bit, a fresh radio's output on the
// same input sequence — with and without the DDC, at unity and non-unity
// TX gain, across idle, delay, burst and quiet spans.
func TestProcessOverwritesReusedTXBuffer(t *testing.T) {
	makeRadio := func(sourceHz int, txGainDB float64) *N210 {
		r := New()
		if err := r.SetSourceRate(sourceHz); err != nil {
			t.Fatal(err)
		}
		if err := r.SetTXGain(txGainDB); err != nil {
			t.Fatal(err)
		}
		bus := r.Core().Bus()
		for a, v := range map[uint8]uint32{
			core.RegEnergyConfig:     1,
			core.RegEnergyThreshHigh: 600,
			core.RegTriggerConfig:    2 | 1<<12, // single-stage energy-high trigger
			core.RegJammerWaveform:   0,         // WGN
			core.RegJammerUptime:     500,
			core.RegJammerDelay:      20,
			core.RegJammerGainAnt:    1000,
		} {
			if err := bus.Write(a, v); err != nil {
				t.Fatal(err)
			}
		}
		r.Start()
		return r
	}
	// Three equal chunks: quiet into a rising edge, the burst running on,
	// and a quiet tail followed by a second rise.
	const chunk = 3000
	in := make(dsp.Samples, 3*chunk)
	for i := range in {
		if (i >= 1000 && i < 4500) || i >= 8000 {
			in[i] = complex(0.5, -0.25)
		}
	}
	nan := complex(math.NaN(), math.NaN())
	for _, sourceHz := range []int{fpga.SampleRateHz, 20_000_000} {
		for _, gainDB := range []float64{0, 6} {
			poisoned := makeRadio(sourceHz, gainDB)
			fresh := makeRadio(sourceHz, gainDB)
			for c := 0; c < 3; c++ {
				part := in[c*chunk : (c+1)*chunk]
				got, err := poisoned.Process(part)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Process(part)
				if err != nil {
					t.Fatal(err)
				}
				fresh.tx = nil // the reference never reuses a buffer
				if len(got) != len(want) {
					t.Fatalf("source %d Hz, %v dB, chunk %d: %d samples, want %d",
						sourceHz, gainDB, c, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("source %d Hz, %v dB, chunk %d: sample %d = %v, fresh radio %v",
							sourceHz, gainDB, c, i, got[i], want[i])
					}
				}
				for i := range got {
					got[i] = nan
				}
			}
			if poisoned.Core().Stats().JamSamples == 0 {
				t.Fatalf("source %d Hz, %v dB: the jammer never fired", sourceHz, gainDB)
			}
		}
	}
}
