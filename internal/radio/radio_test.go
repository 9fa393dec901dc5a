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
	if err := r.Tune(2.484e9); err != nil { // WiFi channel 14, §4.1
		t.Error(err)
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

func TestProcessRequiresStart(t *testing.T) {
	r := New()
	if _, err := r.Process(make(dsp.Samples, 10)); err == nil {
		t.Error("Process before Start accepted")
	}
	r.Start()
	if !r.started {
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

// TestProcessOverwritesReusedTXBuffer pins the transmit-buffer contract:
// Process hands out the radio's own buffer and the next call writes every
// sample of it. The buffer is poisoned with NaN between calls, and the
// next call must still equal, bit for bit, a fresh radio's output on the
// same input sequence — with and without the DDC, across idle, delay,
// burst and quiet spans.
func TestProcessOverwritesReusedTXBuffer(t *testing.T) {
	makeRadio := func(sourceHz int) *N210 {
		r := New()
		if err := r.SetSourceRate(sourceHz); err != nil {
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
		poisoned := makeRadio(sourceHz)
		fresh := makeRadio(sourceHz)
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
				t.Fatalf("source %d Hz, chunk %d: %d samples, want %d",
					sourceHz, c, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("source %d Hz, chunk %d: sample %d = %v, fresh radio %v",
						sourceHz, c, i, got[i], want[i])
				}
			}
			for i := range got {
				got[i] = nan
			}
		}
		if poisoned.Core().Stats().JamSamples == 0 {
			t.Fatalf("source %d Hz: the jammer never fired", sourceHz)
		}
	}
}
