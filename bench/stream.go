package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	reactivejam "repro"
	"repro/internal/dsp"
	"repro/internal/iperf"
	"repro/internal/mac"
	"repro/internal/testbed"
	"repro/internal/wifi"
)

// stream-25msps: the deployment shape and the real-time claim. A seeded
// 25 MSPS capture of the paper's own traffic, the Fig. 10 iperf link as the
// jammer's receive port hears it, is generated in set-up; one item is one
// pass over it through reactivejam.Framework.Process in 4096-sample chunks,
// the framework carrying its state from pass to pass. There is no
// resampler, noise or modem in the timed loop. Throughput counts Msamples;
// 25 Msamples/s is real time, and one chunk lasts 163.84 µs.

const streamChunk = 4096

type streamRunner struct {
	seed   int64
	stream []complex128
	fw     *reactivejam.Framework
	prev   reactivejam.Stats

	// The traced replay's own framework, rebuilt at item 0.
	tfw   *reactivejam.Framework
	tprev reactivejam.Stats
}

func setupStream(seed int64, smoke bool) (runner, error) {
	log2 := 22
	if smoke {
		log2 = 16
	}
	s := &streamRunner{seed: seed}
	var err error
	if s.stream, err = streamCapture(itemSeed(25, seed, 0), 1<<log2); err != nil {
		return nil, err
	}
	if s.fw, err = newStreamFramework(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *streamRunner) cycle() int { return 1 }

func (s *streamRunner) sizes() map[string]any {
	return map[string]any{"stream_samples": len(s.stream), "chunk_samples": streamChunk}
}

// newStreamFramework arms the short-preamble detector at 0.059 trig/s and a
// reactive WGN jammer with 100 µs bursts.
func newStreamFramework() (*reactivejam.Framework, error) {
	fw := reactivejam.New()
	if err := fw.DetectWiFiShortPreamble(0.059); err != nil {
		return nil, err
	}
	_, err := fw.SetPersonality(reactivejam.Personality{
		Name: "reactive-wgn", Waveform: reactivejam.WGN, Uptime: 100 * time.Microsecond, Gain: 1,
	})
	return fw, err
}

// streamCapture synthesizes n samples at 25 MSPS of what the jammer's
// receive port hears in the Fig. 10 testbed while the jammer is silent. The
// iperf.DefaultLink client sends its 1470 B UDP datagrams back to back; a
// mac.Sequencer spaces them with DIFS and backoff and accounts each one's
// SIFS and ACK, and every frame goes at the rate the unjammed link settles
// on. Data frames reach port 5 over the client's Table 1 path, ACKs over the
// AP's, and the jammer front end adds the link's noise floor. The timeline
// is modulated at 20 MSPS and resampled 5/4 as a whole.
func streamCapture(seed int64, n int) ([]complex128, error) {
	link := iperf.DefaultLink()
	net := testbed.New()
	gData := net.PathGain(testbed.PortClient, testbed.PortJammerRX)
	ack, err := wifi.Modulate(wifi.AppendFCS(make([]byte, mac.AckBytes-4)), wifi.TxConfig{Rate: mac.AckRate, ScramblerSeed: 0x11})
	if err != nil {
		return nil, err
	}
	ack.Scale(net.PathGain(testbed.PortAP, testbed.PortJammerRX))
	samplesAt := func(d time.Duration) int { return int(d * wifi.SampleRate / time.Second) }

	rng := rand.New(rand.NewSource(seed))
	seq := mac.NewSequencer(link.StartRate, seed+7)
	timeline := make(dsp.Samples, n*4/5)
	mpdu := make([]byte, mac.HeaderBytes+link.PayloadBytes)
	mpdu[0] = 0x08 // data frame
	var xerr error
	for pkt, full := 0, false; !full; pkt++ {
		mpdu[22], mpdu[23] = byte(pkt), byte(pkt>>8)
		rng.Read(mpdu[mac.HeaderBytes:])
		// No jammer transmits, so every attempt gets its ACK.
		if _, err := seq.SendMSDU(link.PayloadBytes, func(att mac.TxAttempt) bool {
			data, err := wifi.Modulate(wifi.AppendFCS(mpdu), wifi.TxConfig{Rate: att.Rate, ScramblerSeed: uint8(rng.Intn(127) + 1)})
			if err != nil {
				xerr, full = err, true
				return true
			}
			pos := samplesAt(seq.Elapsed())
			ackPos := pos + len(data) + samplesAt(mac.SIFS)
			if ackPos+len(ack) > len(timeline) {
				full = true
				return true
			}
			timeline[pos:].Add(data.Scale(gData))
			timeline[ackPos:].Add(ack)
			return true
		}); err != nil {
			return nil, err
		}
	}
	if xerr != nil {
		return nil, xerr
	}
	out := dsp.NewResampler(5, 4, 8).Process(timeline)
	out = append(out, make(dsp.Samples, n-min(n, len(out)))...)[:n]
	dsp.NewNoiseSource(dsp.FromDB(link.NoiseFloorDB), seed+1).AddTo(out)
	return out, nil
}

func (s *streamRunner) run(k int) (itemResult, error) {
	lat := make([]time.Duration, 0, len(s.stream)/streamChunk)
	h := fnvOffset
	for off := 0; off < len(s.stream); off += streamChunk {
		in := s.stream[off : off+streamChunk]
		t0 := time.Now()
		tx, err := s.fw.Process(in)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return itemResult{}, err
		}
		h = hashSamples(h, tx)
	}
	line, err := s.passLine(k, s.fw, &s.prev, h)
	if err != nil {
		return itemResult{}, err
	}
	return itemResult{out: []string{line}, units: float64(len(s.stream)) / 1e6, lat: lat}, nil
}

func (s *streamRunner) traced(k int, tr *tracer) ([]string, error) {
	if k == 0 {
		fw, err := newStreamFramework()
		if err != nil {
			return nil, err
		}
		s.tfw, s.tprev = fw, reactivejam.Stats{}
	}
	h := fnvOffset
	for off := 0; off < len(s.stream); off += streamChunk {
		id := tr.begin("core")
		tx, err := s.tfw.Process(s.stream[off : off+streamChunk])
		tr.end(id, streamChunk)
		if err != nil {
			return nil, err
		}
		h = hashSamples(h, tx)
	}
	before := s.tprev
	line, err := s.passLine(k, s.tfw, &s.tprev, h)
	if err != nil {
		return nil, err
	}
	tr.count("core.jam_samples", float64(s.tprev.JamSamples-before.JamSamples))
	tr.count("core.samples", float64(s.tprev.Samples-before.Samples))
	return []string{line}, nil
}

// passLine renders one pass's counter deltas and TX digest, advancing *prev.
func (s *streamRunner) passLine(k int, fw *reactivejam.Framework, prev *reactivejam.Stats, h uint64) (string, error) {
	st := fw.Stats()
	d := reactivejam.Stats{
		Samples:              st.Samples - prev.Samples,
		XCorrDetections:      st.XCorrDetections - prev.XCorrDetections,
		EnergyHighDetections: st.EnergyHighDetections - prev.EnergyHighDetections,
		JamTriggers:          st.JamTriggers - prev.JamTriggers,
		JamSamples:           st.JamSamples - prev.JamSamples,
	}
	*prev = st
	if d.Samples != uint64(len(s.stream)) || d.JamSamples > d.Samples {
		return "", fmt.Errorf("pass %d: implausible counters %+v", k, d)
	}
	return fmt.Sprintf("pass=%d samples=%d xcorr=%d energy_high=%d jam_triggers=%d jam_samples=%d tx_fnv=%016x",
		k, d.Samples, d.XCorrDetections, d.EnergyHighDetections, d.JamTriggers, d.JamSamples, h), nil
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashSamples folds the bit patterns of x into an FNV-1a style digest, one
// 64-bit word per rail.
func hashSamples(h uint64, x []complex128) uint64 {
	for _, v := range x {
		h = (h ^ math.Float64bits(real(v))) * fnvPrime
		h = (h ^ math.Float64bits(imag(v))) * fnvPrime
	}
	return h
}
