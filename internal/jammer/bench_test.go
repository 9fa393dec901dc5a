package jammer

import (
	"testing"

	"repro/internal/fixed"
)

func benchController(tb testing.TB) *Controller {
	tb.Helper()
	c := New()
	if err := c.SetWaveform(WaveformWGN); err != nil {
		tb.Fatal(err)
	}
	if err := c.SetUptimeSamples(256); err != nil {
		tb.Fatal(err)
	}
	c.SetGain(1)
	return c
}

// BenchmarkProcessIdle measures the controller's cost while armed but not
// jamming — the common case on the 25 MSPS datapath.
func BenchmarkProcessIdle(b *testing.B) {
	c := benchController(b)
	rx := fixed.IQ{I: 120, Q: -40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(rx, false)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// BenchmarkProcessJamming measures the controller while it synthesizes a
// burst: re-trigger every sample so the uptime counter never idles the
// waveform generator.
func BenchmarkProcessJamming(b *testing.B) {
	c := benchController(b)
	rx := fixed.IQ{I: 120, Q: -40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(rx, true)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// burstSpan returns a controller inside a WGN burst far longer than any
// benchmark runs, with quiet receive planes and a transmit buffer of n
// samples, so ProcessQuietSpan stays on the bulk burst path.
func burstSpan(tb testing.TB, n int) (c *Controller, iPlane, qPlane []int16, tx []complex128) {
	tb.Helper()
	c = benchController(tb)
	if err := c.SetUptimeSamples(1 << 32); err != nil {
		tb.Fatal(err)
	}
	c.Process(fixed.IQ{}, true)
	for c.st != PhaseJamming {
		c.Process(fixed.IQ{}, false)
	}
	return c, make([]int16, n), make([]int16, n), make([]complex128, n)
}

// BenchmarkProcessQuietSpanJamming measures the bulk burst path the block
// datapath takes between triggers while the WGN preset is on the air.
func BenchmarkProcessQuietSpanJamming(b *testing.B) {
	c, iPlane, qPlane, tx := burstSpan(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ProcessQuietSpan(iPlane, qPlane, tx)
	}
	b.ReportMetric(float64(b.N*len(tx))/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// TestProcessQuietSpanJammingZeroAllocs pins the WGN burst span at zero
// allocations.
func TestProcessQuietSpanJammingZeroAllocs(t *testing.T) {
	c, iPlane, qPlane, tx := burstSpan(t, 1024)
	allocs := testing.AllocsPerRun(10, func() {
		c.ProcessQuietSpan(iPlane, qPlane, tx)
	})
	if allocs != 0 {
		t.Errorf("ProcessQuietSpan (WGN burst): %.1f allocs per 1024 samples, want 0", allocs)
	}
	if c.st != PhaseJamming {
		t.Fatal("burst ended; the span did not stay on the burst path")
	}
}

// TestProcessZeroAllocs pins the controller's zero-allocation guarantee in
// both phases.
func TestProcessZeroAllocs(t *testing.T) {
	c := benchController(t)
	rx := fixed.IQ{I: 120, Q: -40}
	for _, trig := range []bool{false, true} {
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1024; i++ {
				c.Process(rx, trig)
			}
		})
		if allocs != 0 {
			t.Errorf("Process(trigger=%v): %.1f allocs per 1024 samples, want 0",
				trig, allocs)
		}
	}
}
