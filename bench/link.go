package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/jammer"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/testbed"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// link-reactive: the paper's headline Fig. 10 curve. One item is one point
// of it: experiments.RunJamSweep with the reactive 100 µs WGN jammer at one
// attenuation. A cycle is the 11 default attenuations in order, the whole
// curve, and each cycle has its own sweep seed. A whole curve per item
// would take about 2 s, too few items per run for a steady median.
// Throughput counts figure points.

const linkUptime = 100 * time.Microsecond

type linkRunner struct {
	seed         int64
	attenuations []float64
	packets      int
}

func (r *linkRunner) cycle() int { return len(r.attenuations) }

func setupLink(seed int64, smoke bool) (runner, error) {
	r := &linkRunner{seed: seed, attenuations: experiments.DefaultAttenuationSweep, packets: 40}
	if smoke {
		r.attenuations, r.packets = []float64{0, 30}, 4
	}
	return r, nil
}

func (r *linkRunner) sizes() map[string]any {
	return map[string]any{"attenuations": len(r.attenuations), "packets": r.packets, "payload_bytes": 1470}
}

// config is item k's sweep: one attenuation, with the seed of its cycle.
func (r *linkRunner) config(k int) experiments.JamSweepConfig {
	cfg := experiments.DefaultJamSweep(iperf.JamReactive, linkUptime)
	cfg.Attenuations = []float64{r.attenuations[k%len(r.attenuations)]}
	cfg.Packets = r.packets
	cfg.Seed = itemSeed(cfg.Seed, r.seed, k/len(r.attenuations))
	return cfg
}

func (r *linkRunner) run(k int) (itemResult, error) {
	cfg := r.config(k)
	t0 := time.Now()
	pts, err := experiments.RunJamSweep(cfg)
	d := time.Since(t0)
	if err != nil {
		return itemResult{}, err
	}
	if len(pts) != 1 {
		return itemResult{}, fmt.Errorf("%d points for one attenuation", len(pts))
	}
	p := pts[0]
	if err := checkLinkResult(p.Result); err != nil {
		return itemResult{}, fmt.Errorf("attenuation %v dB: %w", p.VariableAttDB, err)
	}
	return itemResult{out: []string{linkLine(p.VariableAttDB, p.Result)}, units: 1, lat: []time.Duration{d}}, nil
}

func (r *linkRunner) traced(k int, tr *tracer) ([]string, error) {
	cfg := r.config(k)
	link := iperf.DefaultLink()
	link.Packets = cfg.Packets
	link.PayloadBytes = cfg.PayloadBytes
	link.Seed = cfg.Seed
	att := cfg.Attenuations[0]
	res, err := runLinkMirror(tr, link, att, cfg.Uptime)
	if err != nil {
		return nil, err
	}
	return []string{linkLine(att, res)}, nil
}

func linkLine(att float64, r iperf.Result) string {
	return fmt.Sprintf("att_db=%v delivered=%d offered=%d prr=%v bw_kbps=%v sir_db=%v airtime=%v dropped=%v rate=%v elapsed_ns=%d",
		att, r.Delivered, r.Offered, r.PRR, r.BandwidthKbps, r.SIRdB, r.JamAirtimeFrac,
		r.LinkDropped, r.FinalRate, r.Elapsed.Nanoseconds())
}

func checkLinkResult(r iperf.Result) error {
	if r.Delivered < 0 || r.Delivered > r.Offered || r.PRR < 0 || r.PRR > 1 ||
		r.JamAirtimeFrac < 0 || r.JamAirtimeFrac > 1 || math.IsNaN(r.SIRdB) {
		return fmt.Errorf("implausible result %+v", r)
	}
	return nil
}

// Framing of the iperf link simulation: quiet lead-in and tail around every
// frame at 20 MSPS, and the receiver's LTS search window. These and the
// seed offsets below (+7 sequencer, +101/+202/+303 noise) repeat private
// details of internal/iperf. If that package changes them, every traced
// link run fails with outputs that differ from the untraced run.
const (
	linkLead      = 256
	linkLTSOffset = linkLead + 192
)

// linkMirror replays iperf.Run for a reactive jammer call for call, through
// the public layer APIs, so that each layer can be timed on its own. The
// jammer's DDC (the 20→25 MSPS resampler N210.SetSourceRate would install)
// is split out in front of a native-rate N210, which is the same
// computation. The bench proves the mirror by comparing its figures with
// iperf.Run's, field for field.
type linkMirror struct {
	tr   *tracer
	link iperf.LinkConfig
	rng  *rand.Rand

	gClientAP, gAPClient, gClientJam, gAPJam, gJamAP, gJamClient float64

	apNoise, clientNoise, jamNoise *dsp.NoiseSource

	jammer   *radio.N210
	ddc, duc *dsp.Resampler

	jamPowerAcc  float64
	jamActiveN   int
	sigPowerAtAP float64
	totalSamples int
	jamTXSamples int
}

func runLinkMirror(tr *tracer, link iperf.LinkConfig, attDB float64, uptime time.Duration) (iperf.Result, error) {
	net := testbed.New()
	if err := net.SetVariableAttenuator(attDB); err != nil {
		return iperf.Result{}, err
	}
	noisePower := dsp.FromDB(link.NoiseFloorDB)
	m := &linkMirror{
		tr:   tr,
		link: link,
		rng:  rand.New(rand.NewSource(link.Seed)),

		gClientAP:  net.PathGain(testbed.PortClient, testbed.PortAP),
		gAPClient:  net.PathGain(testbed.PortAP, testbed.PortClient),
		gClientJam: net.PathGain(testbed.PortClient, testbed.PortJammerRX),
		gAPJam:     net.PathGain(testbed.PortAP, testbed.PortJammerRX),
		gJamAP:     net.PathGain(testbed.PortJammerTX, testbed.PortAP),
		gJamClient: net.PathGain(testbed.PortJammerTX, testbed.PortClient),

		apNoise:     dsp.NewNoiseSource(noisePower, link.Seed+101),
		clientNoise: dsp.NewNoiseSource(noisePower, link.Seed+202),
		jamNoise:    dsp.NewNoiseSource(noisePower, link.Seed+303),

		jammer: radio.New(),
		ddc:    dsp.NewResampler(5, 4, 8),
		duc:    dsp.NewResampler(4, 5, 8),
	}
	h := host.New(m.jammer.Core())
	if _, err := h.ProgramJammer(host.Personality{Waveform: jammer.WaveformWGN, Uptime: uptime, Gain: 1}); err != nil {
		return iperf.Result{}, err
	}
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		return iperf.Result{}, err
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{trigger.EventEnergyHigh}, 0); err != nil {
		return iperf.Result{}, err
	}
	m.jammer.Start()
	res, err := m.run()
	st := m.jammer.Core().Stats()
	tr.count("core.jam_samples", float64(st.JamSamples))
	tr.count("core.samples", float64(st.Samples))
	return res, err
}

func (m *linkMirror) run() (iperf.Result, error) {
	tr := m.tr
	seq := mac.NewSequencer(m.link.StartRate, m.link.Seed+7)
	res := iperf.Result{Offered: m.link.Packets}
	payload := make([]byte, m.link.PayloadBytes)
	for pkt := 0; pkt < m.link.Packets; pkt++ {
		m.rng.Read(payload)
		header := make([]byte, mac.HeaderBytes)
		header[0] = 0x08
		header[22] = byte(pkt)
		header[23] = byte(pkt >> 8)
		mpdu := append(append([]byte{}, header...), payload...)
		psdu := wifi.AppendFCS(mpdu)

		var xerr error
		before := m.totalSamples
		id := tr.begin("mac")
		ok, err := seq.SendMSDU(m.link.PayloadBytes, func(att mac.TxAttempt) bool {
			tr.count("mac.attempts", 1)
			got, e := m.exchange(att, psdu)
			if e != nil {
				xerr = e
			}
			return got
		})
		tr.end(id, m.totalSamples-before)
		if err != nil {
			return res, err
		}
		if xerr != nil {
			return res, xerr
		}
		if ok {
			res.Delivered++
		}
		if m.link.LinkDropFailures > 0 && seq.ConsecutiveMSDUFailures() >= m.link.LinkDropFailures {
			res.LinkDropped = true
			break
		}
	}
	res.PRR = float64(res.Delivered) / float64(res.Offered)
	res.Elapsed = seq.Elapsed()
	if !res.LinkDropped && res.Elapsed > 0 {
		bits := float64(res.Delivered) * float64(m.link.PayloadBytes) * 8
		res.BandwidthKbps = bits / res.Elapsed.Seconds() / 1000
	}
	res.SIRdB = math.Inf(1)
	if m.jamActiveN > 0 && m.sigPowerAtAP != 0 {
		res.SIRdB = dsp.DB(m.sigPowerAtAP / (m.jamPowerAcc / float64(m.jamActiveN)))
	}
	res.FinalRate = seq.Rate()
	if m.totalSamples > 0 {
		res.JamAirtimeFrac = float64(m.jamTXSamples) / float64(m.totalSamples)
	}
	return res, nil
}

// exchange is one data + ACK transaction; it reports whether the client got
// its ACK.
func (m *linkMirror) exchange(att mac.TxAttempt, psdu []byte) (bool, error) {
	tr := m.tr
	id := tr.begin("wifi.tx")
	txData, err := wifi.Modulate(psdu, wifi.TxConfig{Rate: att.Rate, ScramblerSeed: uint8(m.rng.Intn(127) + 1)})
	tr.end(id, len(txData))
	if err != nil {
		return false, err
	}

	// Data frame: client → AP, with the jammer listening.
	n := linkLead + len(txData) + linkLead
	id = tr.begin("testbed")
	clientTX := make(dsp.Samples, n)
	copy(clientTX[linkLead:], txData)
	jamRX := clientTX.Clone().Scale(m.gClientJam)
	tr.end(id, n)
	jamTX, err := m.jamContribution(jamRX)
	if err != nil {
		return false, err
	}
	id = tr.begin("testbed")
	apRX := clientTX.Clone().Scale(m.gClientAP)
	apRX.Add(jamTX.Clone().Scale(m.gJamAP))
	m.sigPowerAtAP = txData.Power() * m.gClientAP * m.gClientAP
	for _, v := range jamTX {
		if v != 0 {
			p := real(v)*real(v) + imag(v)*imag(v)
			m.jamPowerAcc += p * m.gJamAP * m.gJamAP
			m.jamActiveN++
		}
	}
	tr.end(id, n)
	m.addNoise(m.apNoise, apRX)
	m.totalSamples += n
	if !m.receive(apRX) {
		return false, nil
	}

	// ACK: AP → client, SIFS later.
	id = tr.begin("wifi.tx")
	ackPSDU := wifi.AppendFCS(make([]byte, mac.AckBytes-4))
	ackWave, err := wifi.Modulate(ackPSDU, wifi.TxConfig{Rate: mac.AckRate, ScramblerSeed: 0x11})
	tr.end(id, len(ackWave))
	if err != nil {
		return false, err
	}
	an := linkLead + len(ackWave) + linkLead
	id = tr.begin("testbed")
	apTX := make(dsp.Samples, an)
	copy(apTX[linkLead:], ackWave)
	jamRXack := apTX.Clone().Scale(m.gAPJam)
	tr.end(id, an)
	jamTXack, err := m.jamContribution(jamRXack)
	if err != nil {
		return false, err
	}
	id = tr.begin("testbed")
	clientRX := apTX.Clone().Scale(m.gAPClient)
	clientRX.Add(jamTXack.Clone().Scale(m.gJamClient))
	tr.end(id, an)
	m.addNoise(m.clientNoise, clientRX)
	m.totalSamples += an
	return m.receive(clientRX), nil
}

// jamContribution runs the jammer's receive mix through its front-end
// noise, the DDC, the native-rate core and the DUC back to 20 MSPS.
func (m *linkMirror) jamContribution(rxAtJam dsp.Samples) (dsp.Samples, error) {
	tr := m.tr
	id := tr.begin("testbed")
	in := rxAtJam.Clone()
	tr.end(id, len(in))
	m.addNoise(m.jamNoise, in)
	id = tr.begin("dsp.resample")
	in25 := m.ddc.Process(in)
	tr.end(id, len(in))
	id = tr.begin("core")
	tx25, err := m.jammer.Process(in25)
	tr.end(id, len(in25))
	if err != nil {
		return nil, err
	}
	id = tr.begin("dsp.resample")
	tx20 := m.duc.Process(tx25)
	tr.end(id, len(tx25))
	id = tr.begin("testbed")
	active := 0
	for _, v := range tx25 {
		if v != 0 {
			active++
		}
	}
	m.jamTXSamples += active * 4 / 5
	if len(tx20) < len(rxAtJam) {
		tx20 = append(tx20, make(dsp.Samples, len(rxAtJam)-len(tx20))...)
	}
	tr.end(id, len(rxAtJam))
	return tx20[:len(rxAtJam)], nil
}

func (m *linkMirror) addNoise(src *dsp.NoiseSource, x dsp.Samples) {
	id := m.tr.begin("dsp.noise")
	src.AddTo(x)
	m.tr.end(id, len(x))
}

// receive runs the station receiver and reports whether the frame decoded
// with a valid FCS.
func (m *linkMirror) receive(x dsp.Samples) bool {
	id := m.tr.begin("wifi.rx")
	res, err := wifi.Demodulate(x, linkLTSOffset-48, linkLTSOffset+48)
	ok := err == nil
	if ok {
		_, ok = wifi.CheckFCS(res.PSDU)
	}
	m.tr.end(id, len(x))
	if ok {
		m.tr.count("wifi.rx.fcs_ok", 1)
	}
	return ok
}
