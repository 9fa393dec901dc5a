package energy

import (
	"testing"

	"repro/internal/fixed"
)

// benchInput alternates quiet and loud stretches so both threshold
// comparators and the delay-line compare stay busy.
func benchInput(n int) []fixed.IQ {
	out := make([]fixed.IQ, n)
	for i := range out {
		amp := int16(50)
		if i%512 >= 256 {
			amp = 8000
		}
		out[i] = fixed.IQ{I: amp, Q: -amp / 2}
	}
	return out
}

func benchDiff(tb testing.TB) *Differentiator {
	tb.Helper()
	d := New()
	if err := d.SetHighThresholdDB(10); err != nil {
		tb.Fatal(err)
	}
	if err := d.SetLowThresholdDB(6); err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkProcess measures the per-sample entry point.
func BenchmarkProcess(b *testing.B) {
	d := benchDiff(b)
	in := benchInput(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(in[i%len(in)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// BenchmarkProcessBits measures the block entry point core.ProcessBlock
// uses: SoA int16 planes in, packed trigger bitmaps out.
func BenchmarkProcessBits(b *testing.B) {
	d := benchDiff(b)
	iPlane, qPlane := splitPlanes(benchInput(4096))
	high := make([]uint64, len(iPlane)/64)
	low := make([]uint64, len(iPlane)/64)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		d.ProcessBits(iPlane, qPlane, high, low)
		n += len(iPlane)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// TestProcessBitsZeroAllocs pins the block path's zero-allocation
// guarantee.
func TestProcessBitsZeroAllocs(t *testing.T) {
	d := benchDiff(t)
	iPlane, qPlane := splitPlanes(benchInput(1024))
	high := make([]uint64, len(iPlane)/64)
	low := make([]uint64, len(iPlane)/64)
	allocs := testing.AllocsPerRun(10, func() {
		d.ProcessBits(iPlane, qPlane, high, low)
	})
	if allocs != 0 {
		t.Errorf("ProcessBits: %.1f allocs per 1024-sample block, want 0", allocs)
	}
}
