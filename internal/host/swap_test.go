package host

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/trigger"
	"repro/internal/wimax"
	"repro/internal/xcorr"
)

// feedNoise runs n low-level noise samples through the core.
func feedNoise(c *core.Core, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		c.ProcessSample(complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01)
	}
}

// feedFrame plays a template waveform into the core at full amplitude,
// padded with noise on both sides, and returns how many new correlator
// detections it produced.
func feedFrame(c *core.Core, rng *rand.Rand, frame []complex128) uint64 {
	before := c.Stats().XCorrDetections
	feedNoise(c, rng, 200)
	for _, s := range frame {
		c.ProcessSample(s)
	}
	feedNoise(c, rng, 200)
	return c.Stats().XCorrDetections - before
}

// TestMidStreamTemplateSwap reprograms the correlator from the WiFi short
// preamble to the WiMAX downlink preamble while samples keep flowing — the
// §4.3 on-the-fly personality switch. It pins down three contracts:
//
//   - bus-latency accounting: the full template swap costs exactly
//     15 register writes (14 coefficient registers + threshold) and the
//     jammer personality swap exactly 4;
//   - selectivity on both sides of the swap: WiFi detects only before,
//     WiMAX only after;
//   - no stale-coefficient triggers: while the banks are half WiFi, half
//     WiMAX (threshold intentionally written last), the receive stream
//     running between the register writes must produce zero detections.
func TestMidStreamTemplateSwap(t *testing.T) {
	c := core.New()
	h := New(c)
	rng := rand.New(rand.NewSource(7))

	wifiTpl := WiFiShortTemplate()
	wimaxTpl, err := WiMAXTemplate(wimax.Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}

	if d, err := h.ProgramCorrelator(wifiTpl, 0.5); err != nil {
		t.Fatal(err)
	} else if d != 15*fpga.RegWriteLatency {
		t.Errorf("WiFi programming latency %v, want %v", d, 15*fpga.RegWriteLatency)
	}
	if _, err := h.ProgramTrigger(core.FusionSequence,
		[]trigger.Event{trigger.EventXCorr}, 0); err != nil {
		t.Fatal(err)
	}
	if d, err := h.ProgramJammer(ReactiveShort); err != nil {
		t.Fatal(err)
	} else if d != 4*fpga.RegWriteLatency {
		t.Errorf("personality latency %v, want %v", d, 4*fpga.RegWriteLatency)
	}

	// Before the swap: the WiFi personality detects WiFi and rejects WiMAX.
	if n := feedFrame(c, rng, wifiTpl); n == 0 {
		t.Fatal("WiFi personality missed the WiFi preamble")
	}
	if n := feedFrame(c, rng, wimaxTpl); n != 0 {
		t.Fatalf("WiFi personality detected WiMAX preamble %d times", n)
	}

	// Mid-stream swap: issue the same 15 writes ProgramCorrelator would,
	// but interleave the receive stream between them. Each setting-bus write
	// takes RegWriteLatency (300 ns) while the ADC keeps delivering a sample
	// every 40 ns, so ~7 samples land inside every write slot. The threshold
	// register goes last, so throughout the window the core is running a
	// frankenbank of old and new coefficients against the old threshold —
	// exactly the state that must not fire on live traffic.
	samplesPerWrite := int(fpga.RegWriteLatency / fpga.SamplePeriod)
	wi, wq := xcorr.CoefficientsFromTemplate(wimaxTpl)
	thresh := uint32(float64(xcorr.IdealPeakMetric(wimaxTpl)) * 0.5)
	swapWrites := make([]struct {
		addr uint8
		v    uint32
	}, 0, 15)
	for r, v := range core.PackCoefficients(wi) {
		swapWrites = append(swapWrites, struct {
			addr uint8
			v    uint32
		}{core.RegXCorrCoefI0 + uint8(r), v})
	}
	for r, v := range core.PackCoefficients(wq) {
		swapWrites = append(swapWrites, struct {
			addr uint8
			v    uint32
		}{core.RegXCorrCoefQ0 + uint8(r), v})
	}
	swapWrites = append(swapWrites, struct {
		addr uint8
		v    uint32
	}{core.RegXCorrThreshold, thresh})

	detBefore := c.Stats().XCorrDetections
	var swapLatency time.Duration
	for _, w := range swapWrites {
		d, err := h.write(w.addr, w.v)
		if err != nil {
			t.Fatal(err)
		}
		swapLatency += d
		feedNoise(c, rng, samplesPerWrite)
	}
	if swapLatency != time.Duration(len(swapWrites))*fpga.RegWriteLatency {
		t.Errorf("swap latency %v, want %v", swapLatency, time.Duration(len(swapWrites))*fpga.RegWriteLatency)
	}
	if det := c.Stats().XCorrDetections - detBefore; det != 0 {
		t.Fatalf("stale-coefficient window produced %d detections", det)
	}

	// Jammer personality rides along with the template swap.
	if d, err := h.ProgramJammer(ReactiveLong); err != nil {
		t.Fatal(err)
	} else if d != 4*fpga.RegWriteLatency {
		t.Errorf("personality latency %v, want %v", d, 4*fpga.RegWriteLatency)
	}

	// After the swap the selectivity inverts: WiMAX detects, WiFi rejects.
	if n := feedFrame(c, rng, wimaxTpl); n == 0 {
		t.Fatal("WiMAX personality missed the WiMAX preamble")
	}
	if n := feedFrame(c, rng, wifiTpl); n != 0 {
		t.Fatalf("WiMAX personality detected WiFi preamble %d times", n)
	}
	if got, _ := c.Bus().Read(core.RegXCorrThreshold); got != thresh {
		t.Errorf("threshold %d after swap, want %d", got, thresh)
	}
}
