package jammer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// Differential tests for the block datapath's bulk span entry point:
// ProcessQuietSpan must march the controller through trigger-free ticks
// bit-identically to per-sample Process(rx, false) calls — same transmit
// samples, same phase-transition sequence, same counters, and the same
// replay-ring contents no matter how the stream is chopped into spans.

// quietStream builds a quantized receive stream with varying content so the
// replay capture is observable.
func quietStream(rng *rand.Rand, n int) []fixed.IQ {
	out := make([]fixed.IQ, n)
	for k := range out {
		out[k] = fixed.IQ{I: int16(rng.Intn(1 << 16)), Q: int16(rng.Intn(1 << 16))}
	}
	return out
}

func planes(samples []fixed.IQ) (iPlane, qPlane []int16) {
	iPlane = make([]int16, len(samples))
	qPlane = make([]int16, len(samples))
	for k, s := range samples {
		iPlane[k] = s.I
		qPlane[k] = s.Q
	}
	return iPlane, qPlane
}

// runDifferential fires a trigger at index trig (or never, if trig < 0) and
// compares a bulk-span controller against a per-sample one over the stream,
// chopping the bulk side's quiet stretches into spans of blockLen.
func runDifferential(t *testing.T, configure func(*Controller), samples []fixed.IQ, trig, blockLen int) {
	t.Helper()
	label := fmt.Sprintf("trig %d blockLen %d", trig, blockLen)

	var bulkPhases, scalarPhases []string
	bulk, scalar := New(), New()
	configure(bulk)
	configure(scalar)
	bulk.OnPhase(func(from, to Phase) { bulkPhases = append(bulkPhases, from.String()+">"+to.String()) })
	scalar.OnPhase(func(from, to Phase) { scalarPhases = append(scalarPhases, from.String()+">"+to.String()) })

	iPlane, qPlane := planes(samples)
	txB := make([]complex128, len(samples))
	var bulkJam uint64
	for pos := 0; pos < len(samples); {
		if pos == trig {
			txB[pos] = bulk.Process(samples[pos], true)
			if txB[pos] != 0 {
				bulkJam++
			}
			pos++
			continue
		}
		end := pos + blockLen
		if end > len(samples) {
			end = len(samples)
		}
		if trig > pos && trig < end {
			end = trig
		}
		bulkJam += bulk.ProcessQuietSpan(iPlane[pos:end], qPlane[pos:end], txB[pos:end])
		pos = end
	}

	var scalarJam uint64
	for k, s := range samples {
		out := scalar.Process(s, k == trig)
		if out != 0 {
			scalarJam++
		}
		if out != txB[k] {
			t.Fatalf("%s: tx diverges at sample %d: bulk %v vs scalar %v", label, k, txB[k], out)
		}
	}

	if bulkJam != scalarJam {
		t.Fatalf("%s: jam samples %d != %d", label, bulkJam, scalarJam)
	}
	if bulk.triggers != scalar.triggers || bulk.txCount != scalar.txCount {
		t.Fatalf("%s: counters (%d,%d) != (%d,%d)", label,
			bulk.triggers, bulk.txCount, scalar.triggers, scalar.txCount)
	}
	if fmt.Sprint(bulkPhases) != fmt.Sprint(scalarPhases) {
		t.Fatalf("%s: phase transitions %v != %v", label, bulkPhases, scalarPhases)
	}
	if bulk.st != scalar.st || bulk.remaining != scalar.remaining || bulk.rfPending != scalar.rfPending {
		t.Fatalf("%s: end state {%v %d %v} != {%v %d %v}", label,
			bulk.st, bulk.remaining, bulk.rfPending, scalar.st, scalar.remaining, scalar.rfPending)
	}
	if bulk.replay != scalar.replay || bulk.replayPos != scalar.replayPos || bulk.replayLen != scalar.replayLen {
		t.Fatalf("%s: replay ring diverges (pos %d/%d len %d/%d)", label,
			bulk.replayPos, scalar.replayPos, bulk.replayLen, scalar.replayLen)
	}
}

func TestQuietSpanIdleCaptureLongSpan(t *testing.T) {
	// Idle spans longer than the 512-sample replay ring: the bulk capture
	// must skip-advance and keep only the tail, exactly like 1500 individual
	// captures.
	rng := rand.New(rand.NewSource(0x1D7E))
	samples := quietStream(rng, 3*ReplayDepth-37)
	for _, blockLen := range []int{1, 64, ReplayDepth - 1, ReplayDepth, ReplayDepth + 1, len(samples)} {
		runDifferential(t, func(c *Controller) {
			if err := c.SetWaveform(WaveformReplay); err != nil {
				t.Fatal(err)
			}
		}, samples, -1, blockLen)
	}
}

func TestQuietSpanBurstLifecycleAcrossSpans(t *testing.T) {
	// Trigger → delay → init → burst → idle, with every phase boundary
	// landing both inside spans and exactly on span edges.
	rng := rand.New(rand.NewSource(0xBEEF))
	samples := quietStream(rng, 700)
	for _, delay := range []uint64{0, 7, 64} {
		for _, uptime := range []uint64{24, 100, 320} {
			for _, blockLen := range []int{1, 3, 63, 64, 65, 200, len(samples)} {
				runDifferential(t, func(c *Controller) {
					c.SetDelaySamples(delay)
					if err := c.SetUptimeSamples(uptime); err != nil {
						t.Fatal(err)
					}
					c.SetGain(0.8)
				}, samples, 40, blockLen)
			}
		}
	}
}

func TestQuietSpanWGNBurstLaneTails(t *testing.T) {
	// WGN bursts are block-generated in groups of wgnLanes samples; uptimes
	// and span edges that leave a partial group must fall back to the
	// per-sample generator without shifting the noise sequence.
	rng := rand.New(rand.NewSource(0x3A11))
	samples := quietStream(rng, 600)
	for _, uptime := range []uint64{1, 2, 3, 5, 7, 101, 258} {
		for _, gain := range []float64{1, -0.3, 0} {
			for _, blockLen := range []int{1, 3, 5, 64, 65, len(samples)} {
				runDifferential(t, func(c *Controller) {
					if err := c.SetUptimeSamples(uptime); err != nil {
						t.Fatal(err)
					}
					c.SetGain(gain)
				}, samples, 30, blockLen)
			}
		}
	}
}

func TestQuietSpanReplayWaveformAfterCapture(t *testing.T) {
	// Replay jamming plays back what the quiet-span capture stored, so a
	// capture divergence would surface directly in the transmit samples.
	rng := rand.New(rand.NewSource(0x4E91))
	samples := quietStream(rng, 1200)
	for _, blockLen := range []int{33, 512, 600} {
		runDifferential(t, func(c *Controller) {
			if err := c.SetWaveform(WaveformReplay); err != nil {
				t.Fatal(err)
			}
			if err := c.SetUptimeSamples(400); err != nil {
				t.Fatal(err)
			}
		}, samples, 800, blockLen)
	}
}

func TestQuietSpanHostStreamWaveform(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4057))
	samples := quietStream(rng, 500)
	host := make([]complex128, 37)
	for k := range host {
		host[k] = complex(float64(k)*0.02, -float64(k)*0.01)
	}
	for _, blockLen := range []int{5, 64, 128} {
		runDifferential(t, func(c *Controller) {
			if err := c.SetWaveform(WaveformHostStream); err != nil {
				t.Fatal(err)
			}
			c.SetHostStream(host)
			if err := c.SetUptimeSamples(150); err != nil {
				t.Fatal(err)
			}
		}, samples, 100, blockLen)
	}
}
