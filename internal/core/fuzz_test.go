package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/jammer"
	"repro/internal/telemetry"
	"repro/internal/trigger"
	"repro/internal/xcorr"
)

// Options of a fuzz configuration: the detectors it arms, jamReplay,
// which jams with the replay waveform instead of WGN, and armSequence,
// which triggers on a windowed two-stage sequence and jams after a
// surgical delay.
const (
	armXCorr = 1 << iota
	armEnergy
	jamReplay
	armSequence
)

// Correlator thresholds of the fuzz configurations: one fuzzed input
// crosses often, the other is the all-ones threshold a disarmed correlator
// carries.
const (
	fuzzXCorrThreshold = 900
	disarmedThreshold  = math.MaxUint32
)

// The armSequence configuration's window and surgical delay, in samples.
const (
	fuzzSequenceWindow = 40
	fuzzDelay          = 100
)

// fuzzProgram programs a core with a fixed synthetic configuration through
// the register bus: the detectors armed names switched on (the others
// programmed but unable to fire), FusionAny trigger on xcorr and
// energy-high, short WGN jamming bursts, or with jamReplay replay bursts
// longer than the 512-sample capture ring, so each plays the ring around
// once. With armSequence the trigger is instead the sequence xcorr then
// energy-high within fuzzSequenceWindow samples, and each burst starts
// fuzzDelay samples after its trigger: the correlator arms the sequence
// often and most windows expire. The thresholds are low enough that
// fuzzed input actually drives the trigger and jammer paths rather than
// idling through the comparators.
func fuzzProgram(tb testing.TB, c *Core, armed int) {
	tb.Helper()
	write := func(addr uint8, v uint32) {
		if err := c.Bus().Write(addr, v); err != nil {
			tb.Fatal(err)
		}
	}
	ci := make([]fixed.Coeff3, xcorr.Length)
	cq := make([]fixed.Coeff3, xcorr.Length)
	for k := range ci {
		ci[k] = fixed.Coeff3(k%7 - 3)
		cq[k] = fixed.Coeff3((k+3)%7 - 3)
	}
	for r, v := range PackCoefficients(ci) {
		write(RegXCorrCoefI0+uint8(r), v)
	}
	for r, v := range PackCoefficients(cq) {
		write(RegXCorrCoefQ0+uint8(r), v)
	}
	threshold := uint32(disarmedThreshold)
	if armed&armXCorr != 0 {
		threshold = fuzzXCorrThreshold
	}
	write(RegXCorrThreshold, threshold)
	write(RegEnergyThreshHigh, 600)
	write(RegEnergyThreshLow, 600)
	var energyConfig uint32
	if armed&armEnergy != 0 {
		energyConfig = 1
	}
	write(RegEnergyConfig, energyConfig)
	if armed&armSequence != 0 {
		write(RegTriggerWindow, fuzzSequenceWindow)
		write(RegTriggerConfig,
			uint32(trigger.EventXCorr&0xF)|
				uint32(trigger.EventEnergyHigh&0xF)<<4|
				2<<12)
		write(RegJammerDelay, fuzzDelay)
	} else {
		write(RegTriggerWindow, 0)
		write(RegTriggerConfig,
			uint32(trigger.EventXCorr&0xF)|
				uint32(trigger.EventEnergyHigh&0xF)<<4|
				2<<12|1<<14)
	}
	if armed&jamReplay != 0 {
		write(RegJammerWaveform, uint32(jammer.WaveformReplay))
		write(RegJammerUptime, 600)
	} else {
		write(RegJammerUptime, 24)
	}
	write(RegJammerGainAnt, 1000)
}

// fuzzSamples decodes arbitrary fuzz bytes into baseband: four bytes per
// sample, two little-endian int16 rails scaled to [-1, 1) — the quantizer's
// native dynamic range, so every code point is reachable.
func fuzzSamples(data []byte) []complex128 {
	n := len(data) / 4
	if n > 4096 {
		n = 4096
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		re := int16(binary.LittleEndian.Uint16(data[4*i:]))
		im := int16(binary.LittleEndian.Uint16(data[4*i+2:]))
		out[i] = complex(float64(re)/32768, float64(im)/32768)
	}
	return out
}

// fuzzBurstBytes encodes 4096 samples of low noise broken by loud bursts in
// the byte layout fuzzSamples decodes. The first burst starts at sample 80,
// so the energy differentiator's first comparison (sample 96) sees a rise.
func fuzzBurstBytes() []byte {
	rng := rand.New(rand.NewSource(26))
	data := make([]byte, 0, 4*4096)
	for i := 0; i < 4096; i++ {
		amp := 40
		if (i+620)%700 < 200 {
			amp = 20000
		}
		for rail := 0; rail < 2; rail++ {
			data = binary.LittleEndian.AppendUint16(data, uint16(int16(rng.Intn(2*amp)-amp)))
		}
	}
	return data
}

// FuzzProcessBlock fuzzes the block/per-sample parity contract: arbitrary
// sample content chopped into arbitrary block sizes must produce transmit
// output and counters bit-identical to the per-sample path. Each input runs
// once with both detectors armed throughout, then from each arm state
// (correlator only, energy only, both) with fuzzed register writes at block
// boundaries that arm, disarm and re-arm each detector, so the block path
// skips a detector that cannot fire and must keep its history exactly. The
// per-sample core gets the same writes at the same sample index. Those runs
// go once bare and once with a telemetry.Live on each core, whose journals
// must agree too. Then two runs jam with the replay waveform, the
// correlator armed and the energy differentiator disarmed (the block path
// then quantizes only sign bits, and the capture ring holds raw samples)
// and armed (the planes are built in full). Last, a live run with both
// detectors armed triggers on a windowed sequence and jams after a delay,
// so batched spans must end on window expiries and delayed phase events.
func FuzzProcessBlock(f *testing.F) {
	f.Add([]byte("reactive jamming block parity seed: preamble-ish bytes....."), uint16(1))
	f.Add([]byte{0xFF, 0x7F, 0xFF, 0x7F, 0x00, 0x80, 0x00, 0x80, 1, 2, 3, 4}, uint16(313))
	f.Add([]byte{}, uint16(0))
	// Noise with loud bursts, so both detectors fire once armed, chopped at
	// random sizes and at fixed sizes around the sign word (65), the energy
	// tail a skipped block replays (97) and well past it (401).
	bursts := fuzzBurstBytes()
	for _, sizeSeed := range []uint16{7, 0x8000 + 64, 0x8000 + 96, 0x8000 + 400} {
		f.Add(bursts, sizeSeed)
	}
	// Block lengths around the replay ring's 512 samples: a whole block
	// refills the ring, and one a sample shorter leaves one old sample.
	for _, sizeSeed := range []uint16{0x8000 + 510, 0x8000 + 511} {
		f.Add(bursts, sizeSeed)
	}

	f.Fuzz(func(t *testing.T, data []byte, sizeSeed uint16) {
		samples := fuzzSamples(data)
		fuzzParity(t, samples, sizeSeed, armXCorr|armEnergy, false, false)
		for _, armed := range []int{armXCorr, armEnergy, armXCorr | armEnergy} {
			for _, live := range []bool{false, true} {
				fuzzParity(t, samples, sizeSeed, armed, true, live)
			}
		}
		for _, armed := range []int{armXCorr, armXCorr | armEnergy} {
			fuzzParity(t, samples, sizeSeed, armed|jamReplay, false, false)
		}
		fuzzParity(t, samples, sizeSeed, armXCorr|armEnergy|armSequence, false, true)
	})
}

// fuzzParity runs samples through a block core and a per-sample core that
// start from the same arm state, comparing TX sample by sample and the
// counters at the end, plus the journals when live attaches recorders.
//
// Block sizes derive from sizeSeed: seeds below 0x8000 select pseudo-random
// sizes (LCG, 1..97) and seeds at or above it pin a fixed size 1..512, so
// the corpus can target exact sign-word boundaries (1, 63, 64, 65) and block
// edges that split an engagement. With rearm, the second block starts with
// both detectors armed, and the same LCG draws a register write before
// about every other later block: the correlator threshold toggles between
// armed and all-ones, or the energy enables (high, low) take a new value.
func fuzzParity(t *testing.T, samples []complex128, sizeSeed uint16, armed int, rearm, live bool) {
	t.Helper()
	blockCore, sampleCore := New(), New()
	fuzzProgram(t, blockCore, armed)
	fuzzProgram(t, sampleCore, armed)
	var liveB, liveS *telemetry.Live
	if live {
		liveB, liveS = telemetry.NewLive(1<<13), telemetry.NewLive(1<<13)
		blockCore.SetRecorder(liveB)
		sampleCore.SetRecorder(liveS)
	}
	write := func(addr uint8, v uint32) {
		for _, c := range []*Core{blockCore, sampleCore} {
			if err := c.Bus().Write(addr, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	xcArmed := armed&armXCorr != 0

	txB := make([]complex128, len(samples))
	fixedBS := 0
	if sizeSeed >= 0x8000 {
		fixedBS = 1 + int(sizeSeed-0x8000)%512
	}
	lcg := uint32(sizeSeed) | 1
	for pos, block := 0, 0; pos < len(samples); block++ {
		lcg = lcg*1664525 + 1013904223
		bs := fixedBS
		if bs == 0 {
			bs = 1 + int(lcg>>16)%97
		}
		if pos+bs > len(samples) {
			bs = len(samples) - pos
		}
		switch {
		case !rearm:
		case block == 1:
			// Arm whatever the first block skipped, so its history is
			// read while the warm-up fill is still short.
			xcArmed = true
			write(RegXCorrThreshold, fuzzXCorrThreshold)
			write(RegEnergyConfig, 1)
		case lcg>>30 == 0:
			xcArmed = !xcArmed
			threshold := uint32(disarmedThreshold)
			if xcArmed {
				threshold = fuzzXCorrThreshold
			}
			write(RegXCorrThreshold, threshold)
		case lcg>>30 == 1:
			write(RegEnergyConfig, lcg>>12&3)
		}
		blockCore.ProcessBlock(samples[pos:pos+bs], txB[pos:pos+bs])
		for i := pos; i < pos+bs; i++ {
			if txS := sampleCore.ProcessSample(samples[i]); txS != txB[i] {
				t.Fatalf("armed %b, rearm %v, live %v: tx diverges at sample %d: block %v vs per-sample %v",
					armed, rearm, live, i, txB[i], txS)
			}
		}
		pos += bs
	}
	if bs, ss := blockCore.Stats(), sampleCore.Stats(); bs != ss {
		t.Fatalf("armed %b, rearm %v, live %v: stats diverge: block %+v vs per-sample %+v",
			armed, rearm, live, bs, ss)
	}
	if !live {
		return
	}
	gotSnap, wantSnap := liveB.Snapshot(), liveS.Snapshot()
	if gotSnap.Counters != wantSnap.Counters || gotSnap.Engagements != wantSnap.Engagements ||
		gotSnap.Dropped != wantSnap.Dropped {
		t.Fatalf("armed %b, rearm %v: live snapshot diverges: block %+v vs per-sample %+v",
			armed, rearm, gotSnap, wantSnap)
	}
	got, want := liveB.Events(), liveS.Events()
	if len(got) != len(want) {
		t.Fatalf("armed %b, rearm %v: %d journal events, per-sample %d", armed, rearm, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("armed %b, rearm %v: journal event %d = %+v, per-sample %+v",
				armed, rearm, i, got[i], want[i])
		}
	}
}
