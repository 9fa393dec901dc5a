package xcorr

import (
	"testing"

	"repro/internal/fixed"
)

// benchStream builds a deterministic quantized input that toggles the sign
// slicer often enough to exercise the full bit-plane datapath.
func benchStream(n int) []fixed.IQ {
	out := make([]fixed.IQ, n)
	for i := range out {
		out[i] = fixed.IQ{
			I: int16((i*2654435761+12345)%65536 - 32768),
			Q: int16((i*40503+991)%65536 - 32768),
		}
	}
	return out
}

func benchBanks(tb testing.TB) (iC, qC []fixed.Coeff3) {
	tb.Helper()
	iC = make([]fixed.Coeff3, Length)
	qC = make([]fixed.Coeff3, Length)
	for k := 0; k < Length; k++ {
		iC[k] = fixed.Coeff3(k%8 - 4)
		qC[k] = fixed.Coeff3((k*3+1)%8 - 4)
	}
	return iC, qC
}

// BenchmarkProcess measures the per-sample popcount kernel, one call per
// sample, the path ProcessSample and the reference figures take. Its banks
// carry −4, so it runs 12 popcounts per sample.
func BenchmarkProcess(b *testing.B) {
	iC, qC := benchBanks(b)
	c := New()
	if err := c.SetCoefficients(iC, qC); err != nil {
		b.Fatal(err)
	}
	c.SetThreshold(1 << 30)
	in := benchStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(in[i%len(in)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// BenchmarkProcessPacked measures the block kernel the datapath runs:
// 4096-sample blocks of packed sign bits through template banks (|c| ≤ 3,
// 8 popcounts per sample), warm, on the Go loop and, where popcntKernel
// selected it, on the assembly loop.
func BenchmarkProcessPacked(b *testing.B) {
	const n = 4096
	iC, qC := skipBanks()
	signI, signQ := packSigns(benchStream(n))
	level := make([]uint64, n/64)
	defer func() { popcntKernel = hasKernel }()
	for _, asm := range packedLoops() {
		b.Run(loopName(asm), func(b *testing.B) {
			popcntKernel = asm
			c := New()
			if err := c.SetCoefficients(iC, qC); err != nil {
				b.Fatal(err)
			}
			c.SetThreshold(1 << 30)
			c.ProcessPacked(signI, signQ, n, level) // warm up the delay line
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ProcessPacked(signI, signQ, n, level)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}

// BenchmarkProcessReference measures the scalar specification loop the
// packed kernel is verified against (64-tap MAC per sample).
func BenchmarkProcessReference(b *testing.B) {
	iC, qC := benchBanks(b)
	c := NewReference()
	if err := c.SetCoefficients(iC, qC); err != nil {
		b.Fatal(err)
	}
	c.SetThreshold(1 << 30)
	in := benchStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(in[i%len(in)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// TestProcessZeroAllocs pins the kernel's zero-allocation guarantee.
func TestProcessZeroAllocs(t *testing.T) {
	iC, qC := benchBanks(t)
	c := New()
	if err := c.SetCoefficients(iC, qC); err != nil {
		t.Fatal(err)
	}
	in := benchStream(1024)
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range in {
			c.Process(s)
		}
	})
	if allocs != 0 {
		t.Errorf("packed Process: %.1f allocs per 1024-sample run, want 0", allocs)
	}
}
