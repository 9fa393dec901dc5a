package iperf

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/wifi"
)

// testLink keeps unit-test runs fast: small payloads, few packets.
func testLink() LinkConfig {
	l := DefaultLink()
	l.Packets = 15
	l.PayloadBytes = 300
	return l
}

func reactive(uptime time.Duration, varAtt float64) JammerConfig {
	return JammerConfig{
		Mode: JamReactive,
		Personality: host.Personality{
			Waveform: jammer.WaveformWGN, Uptime: uptime, Gain: 1,
		},
		VariableAttDB: varAtt,
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(LinkConfig{PayloadBytes: 0, Packets: 1}, JammerConfig{}); err == nil {
		t.Error("zero payload accepted")
	}
	if _, err := Run(LinkConfig{PayloadBytes: 100, Packets: 0}, JammerConfig{}); err == nil {
		t.Error("zero packets accepted")
	}
	l := testLink()
	if _, err := Run(l, JammerConfig{Mode: JamMode(9)}); err == nil {
		t.Error("bogus mode accepted")
	}
	if _, err := Run(l, reactive(100*time.Microsecond, -3)); err == nil {
		t.Error("negative attenuation accepted")
	}
	for _, c := range []struct {
		name string
		jam  JammerConfig
	}{
		{"reactive zero gain", JammerConfig{Mode: JamReactive,
			Personality: host.Personality{Uptime: 100 * time.Microsecond}}},
		{"reactive negative gain", JammerConfig{Mode: JamReactive,
			Personality: host.Personality{Uptime: 100 * time.Microsecond, Gain: -1}}},
		{"reactive zero uptime", JammerConfig{Mode: JamReactive,
			Personality: host.Personality{Gain: 1}}},
		{"reactive negative uptime", JammerConfig{Mode: JamReactive,
			Personality: host.Personality{Uptime: -time.Microsecond, Gain: 1}}},
		{"continuous zero gain", JammerConfig{Mode: JamContinuous}},
		{"continuous negative gain", JammerConfig{Mode: JamContinuous,
			Personality: host.Personality{Gain: -1}}},
	} {
		if _, err := Run(l, c.jam); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCleanLinkDeliversEverything(t *testing.T) {
	res, err := Run(testLink(), JammerConfig{Mode: JamOff})
	if err != nil {
		t.Fatal(err)
	}
	if res.PRR != 1 {
		t.Errorf("clean-link PRR = %v, want 1", res.PRR)
	}
	if res.LinkDropped {
		t.Error("clean link dropped")
	}
	if !math.IsInf(res.SIRdB, 1) {
		t.Errorf("SIR with jammer off = %v, want +Inf", res.SIRdB)
	}
	if res.BandwidthKbps <= 0 {
		t.Error("no bandwidth measured")
	}
	if res.JamAirtimeFrac != 0 {
		t.Error("jam airtime with jammer off")
	}
	if res.FinalRate != wifi.Rate54 {
		t.Errorf("final rate %v, want 54Mbps on a clean link", res.FinalRate)
	}
}

func TestStrongReactiveJammerKillsLink(t *testing.T) {
	res, err := Run(testLink(), reactive(100*time.Microsecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.PRR > 0.2 {
		t.Errorf("PRR %v under strong reactive jamming", res.PRR)
	}
	if res.BandwidthKbps != 0 && !res.LinkDropped {
		t.Errorf("link survived strong jamming: %+v", res)
	}
	if res.JamAirtimeFrac <= 0 {
		t.Error("reactive jammer never transmitted")
	}
	// SIR at full jammer power through the -38.4 dB path lands around
	// -12 dB against the -51 dB signal path.
	if res.SIRdB > 0 {
		t.Errorf("measured SIR %v dB, expected strongly negative", res.SIRdB)
	}
}

func TestWeakReactiveJammerHarmless(t *testing.T) {
	res, err := Run(testLink(), reactive(100*time.Microsecond, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.PRR != 1 {
		t.Errorf("PRR %v under 50 dB-attenuated jamming, want 1", res.PRR)
	}
	// The jammer still reacts (it hears the frames fine) — it is just too
	// weak to corrupt anything. Stealth metric must show activity.
	if res.JamAirtimeFrac == 0 {
		t.Error("jammer stopped reacting at high attenuation")
	}
	if res.SIRdB < 30 {
		t.Errorf("SIR %v dB, expected > 30 with 50 dB pad", res.SIRdB)
	}
}

func TestContinuousJammerTripsCCA(t *testing.T) {
	res, err := Run(testLink(), JammerConfig{
		Mode:        JamContinuous,
		Personality: host.Personality{Gain: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LinkDropped {
		t.Error("strong continuous jammer did not drop the link")
	}
	if res.BandwidthKbps != 0 || res.Delivered != 0 {
		t.Errorf("delivered %d under CCA blockage", res.Delivered)
	}
}

func TestContinuousJammerBelowCCAOnlyAddsNoise(t *testing.T) {
	res, err := Run(testLink(), JammerConfig{
		Mode:          JamContinuous,
		Personality:   host.Personality{Gain: 1},
		VariableAttDB: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkDropped {
		t.Error("weak continuous jammer dropped the link")
	}
	if res.PRR < 0.9 {
		t.Errorf("PRR %v under weak continuous jamming", res.PRR)
	}
}

func TestLongerUptimeMoreDisruptive(t *testing.T) {
	// §4.3: "a reactive jammer with longer uptime after trigger tends to be
	// more disruptive". At a mid-range attenuation the 0.1 ms jammer must
	// deliver no more than the 0.01 ms jammer.
	link := testLink()
	link.Packets = 12
	const att = 22
	long, err := Run(link, reactive(100*time.Microsecond, att))
	if err != nil {
		t.Fatal(err)
	}
	short, err := Run(link, reactive(10*time.Microsecond, att))
	if err != nil {
		t.Fatal(err)
	}
	if long.PRR > short.PRR+0.2 {
		t.Errorf("0.1ms PRR %v vs 0.01ms PRR %v: long uptime should not be gentler",
			long.PRR, short.PRR)
	}
}

func TestReactiveStealthVsContinuous(t *testing.T) {
	// The reactive jammer's on-air fraction must be far below continuous
	// jamming (the paper's core energy-efficiency argument).
	link := testLink()
	r, err := Run(link, reactive(10*time.Microsecond, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r.JamAirtimeFrac > 0.5 {
		t.Errorf("10µs reactive jammer on-air fraction %v", r.JamAirtimeFrac)
	}
}

func TestReproducibleRuns(t *testing.T) {
	link := testLink()
	a, err := Run(link, reactive(50*time.Microsecond, 25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(link, reactive(50*time.Microsecond, 25))
	if err != nil {
		t.Fatal(err)
	}
	if a.PRR != b.PRR || a.BandwidthKbps != b.BandwidthKbps || a.SIRdB != b.SIRdB {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

// TestConcurrentRunsMatchSequential runs links of different payload sizes
// at once, so pooled exchange scratch is taken, grown and returned while
// other runs hold theirs, and requires each result to equal the same run
// made alone.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	payloads := []int{100, 300, 1470, 300}
	want := make([]Result, len(payloads))
	for i, p := range payloads {
		link := testLink()
		link.PayloadBytes = p
		res, err := Run(link, reactive(50*time.Microsecond, 20))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *res
	}
	got := make([]Result, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			link := testLink()
			link.PayloadBytes = p
			res, err := Run(link, reactive(50*time.Microsecond, 20))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = *res
		}()
	}
	wg.Wait()
	for i := range payloads {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("payload %d B: concurrent run %+v, alone %+v", payloads[i], got[i], want[i])
		}
	}
}

// runOn runs one bandwidth test on the scratch sc and returns its result
// and the reactive jammer's transmit waveform, every exchange's in order.
func runOn(t *testing.T, sc *exchangeScratch, link LinkConfig, jam JammerConfig) (Result, dsp.Samples) {
	t.Helper()
	s, err := newSim(link, jam, sc)
	if err != nil {
		t.Fatal(err)
	}
	var tx dsp.Samples
	s.jamTap = func(x dsp.Samples) { tx = append(tx, x...) }
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	return *res, tx
}

// TestReusedStackEqualsFresh runs a sequence of jammers on one scratch,
// whose reactive stack (radio, DDC, core, transmit resampler) is carried
// from run to run, and requires every result and every jam transmit sample
// to equal the same run on a brand-new scratch. The sequence leaves the
// register residue a reset could miss: a different uptime, a host stream
// played and then absent, and continuous and off runs between reactive
// ones.
func TestReusedStackEqualsFresh(t *testing.T) {
	link := testLink()
	stream := make([]complex128, 300)
	for i := range stream {
		stream[i] = complex(0.5, float64(i%7)/10)
	}
	hostStream := func(uptime time.Duration, buf []complex128) JammerConfig {
		j := reactive(uptime, 10)
		j.Personality.Waveform = jammer.WaveformHostStream
		j.HostStream = buf
		return j
	}
	replay := reactive(10*time.Microsecond, 10)
	replay.Personality.Waveform = jammer.WaveformReplay
	continuous := JammerConfig{Mode: JamContinuous, Personality: host.Personality{Gain: 1}, VariableAttDB: 40}
	seq := []struct {
		name string
		jam  JammerConfig
	}{
		{"reactive 100µs", reactive(100*time.Microsecond, 10)},
		{"reactive 10µs host stream", hostStream(10*time.Microsecond, stream)},
		{"continuous", continuous},
		{"off", JammerConfig{Mode: JamOff}},
		{"reactive 100µs again", reactive(100*time.Microsecond, 10)},
		{"reactive 10µs host stream, none given", hostStream(10*time.Microsecond, nil)},
		// A burst longer than the run leaves both resamplers' histories
		// full of jam and receive samples; the replay jammer after it
		// transmits what its DDC hands the core, so stale DDC or transmit
		// resampler state would show.
		{"reactive 1s, still jamming at the end", reactive(time.Second, 10)},
		{"reactive 10µs replay", replay},
	}
	reused := new(exchangeScratch)
	for _, c := range seq {
		got, gotTX := runOn(t, reused, link, c.jam)
		want, wantTX := runOn(t, new(exchangeScratch), link, c.jam)
		if got != want {
			t.Errorf("%s: reused stack %+v, fresh %+v", c.name, got, want)
		}
		if !slices.Equal(gotTX, wantTX) {
			t.Errorf("%s: jam TX differs on the reused stack (%d samples, fresh %d)", c.name, len(gotTX), len(wantTX))
		}
		if c.jam.Mode == JamReactive && (c.jam.Personality.Waveform != jammer.WaveformHostStream || len(c.jam.HostStream) > 0) &&
			got.JamAirtimeFrac == 0 {
			t.Errorf("%s: the jammer never transmitted, so the run shows nothing", c.name)
		}
	}
}
