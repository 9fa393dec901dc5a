// Package iperf reproduces the §4.2 experimental procedure: UDP bandwidth
// tests between an access point and a wireless client across the 5-port
// wired testbed, with the jamming USRP attached to ports 4/5, reporting the
// achievable bandwidth and packet reception ratio against the measured SIR
// at the access point (Figs. 10 and 11).
//
// Every transmission attempt is simulated at the waveform level: the
// client's PPDU is generated by the real 802.11g modem, the jammer's DSP
// core consumes the resampled receive stream sample by sample and produces
// its burst, everything is combined at the AP with the testbed's measured
// path losses plus receiver noise, and the AP runs the full receiver
// (sync, channel estimation, Viterbi, FCS). MAC behavior — CSMA/CA
// deferral, retries, rate fallback — comes from package mac.
package iperf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/testbed"
	"repro/internal/wifi"
)

// JamMode selects the jammer behavior for a run.
type JamMode uint8

// The three §4.3 jammer types plus off.
const (
	JamOff JamMode = iota
	JamContinuous
	JamReactive
)

func (m JamMode) String() string {
	switch m {
	case JamOff:
		return "off"
	case JamContinuous:
		return "continuous"
	case JamReactive:
		return "reactive"
	default:
		return fmt.Sprintf("JamMode(%d)", uint8(m))
	}
}

// LinkConfig describes the AP-client traffic.
type LinkConfig struct {
	// PayloadBytes is the UDP datagram size (iperf default 1470).
	PayloadBytes int
	// Packets is the number of datagrams to attempt.
	Packets int
	// StartRate is the initial PHY rate (ARF adapts from here).
	StartRate wifi.Rate
	// NoiseFloorDB is the per-station receiver noise power in dB relative
	// to a unit-power transmitter (0 dBr).
	NoiseFloorDB float64
	// LinkDropFailures ends the run as "connection lost" after this many
	// consecutive undeliverable MSDUs (0 disables).
	LinkDropFailures int
	// Seed makes the run reproducible.
	Seed int64
}

// DefaultLink returns the §4.2 settings scaled to a simulation-friendly
// packet budget.
func DefaultLink() LinkConfig {
	return LinkConfig{
		PayloadBytes:     1470,
		Packets:          100,
		StartRate:        wifi.Rate54,
		NoiseFloorDB:     -85,
		LinkDropFailures: 5,
		Seed:             1,
	}
}

// JammerConfig describes the jamming entity.
type JammerConfig struct {
	// Mode selects off / continuous / reactive.
	Mode JamMode
	// Personality configures the reactive jammer (waveform, uptime, delay,
	// gain). For JamContinuous only Gain is used. Run rejects a reactive or
	// continuous jammer whose Gain is not positive, and a reactive one
	// whose Uptime is not.
	Personality host.Personality
	// VariableAttDB is the port-4 variable attenuator setting, the main
	// SIR sweep control.
	VariableAttDB float64
	// HostStream supplies the waveform for jammer.WaveformHostStream
	// personalities.
	HostStream []complex128
}

// Result is one run's measurements.
type Result struct {
	// BandwidthKbps is delivered UDP payload over elapsed air time.
	BandwidthKbps float64
	// PRR is delivered / offered datagrams (Fig. 11's reliability).
	PRR float64
	// Delivered and Offered count datagrams.
	Delivered, Offered int
	// SIRdB is the measured signal-to-interference ratio at the AP during
	// active jamming (+Inf when the jammer never transmitted).
	SIRdB float64
	// LinkDropped reports that the client lost the connection (the §4.3
	// continuous-jamming outcome).
	LinkDropped bool
	// FinalRate is the ARF rate at the end of the run.
	FinalRate wifi.Rate
	// JamAirtimeFrac is the fraction of simulated samples the jammer was
	// transmitting — the stealth metric of §4.3.
	JamAirtimeFrac float64
	// Elapsed is the simulated test duration.
	Elapsed time.Duration
}

// leadSamples of quiet precede every frame at 20 MSPS so the jammer's
// energy differentiator sees the idle-to-busy transition.
const leadSamples = 256

// ltsOffset is where the long training symbol starts within the buffer:
// lead + short preamble (160) + GI2 (32).
const ltsOffset = leadSamples + 192

// Run executes one bandwidth test.
func Run(link LinkConfig, jam JammerConfig) (*Result, error) {
	if link.PayloadBytes <= 0 || link.PayloadBytes > wifi.MaxPSDU-mac.HeaderBytes-4 {
		return nil, fmt.Errorf("iperf: payload %d bytes out of range", link.PayloadBytes)
	}
	if link.Packets <= 0 {
		return nil, fmt.Errorf("iperf: packet budget must be positive")
	}
	if (jam.Mode == JamReactive || jam.Mode == JamContinuous) && !(jam.Personality.Gain > 0) {
		return nil, fmt.Errorf("iperf: %v jammer gain %v must be positive", jam.Mode, jam.Personality.Gain)
	}
	if jam.Mode == JamReactive && jam.Personality.Uptime <= 0 {
		return nil, fmt.Errorf("iperf: reactive jammer uptime %v must be positive", jam.Personality.Uptime)
	}
	sc := scratchPool.Get().(*exchangeScratch)
	defer scratchPool.Put(sc)
	s, err := newSim(link, jam, sc)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// exchangeScratch is the working storage of a run's exchanges: the modem
// codecs, the ACK waveform (the same every time), the data PPDU, the
// transmitted frame with its quiet lead and tail, the jammer's and the
// receiving station's receive mixes, the jammer's output padded to the
// frame length, and the MPDU and PSDU bytes. A run takes one from
// scratchPool and returns it when it ends, so the points of a sweep reuse
// buffers already grown to the frame size and a warm run does not allocate
// per frame.
type exchangeScratch struct {
	txc       wifi.TxCodec
	rxc       wifi.RxCodec
	ackWave   dsp.Samples
	txData    dsp.Samples
	txBuf     dsp.Samples
	jamRX     dsp.Samples
	stationRX dsp.Samples
	jamOut    dsp.Samples
	mpdu      []byte
	psdu      []byte
}

var scratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// sim holds one run's state.
type sim struct {
	link LinkConfig
	jcfg JammerConfig

	net *testbed.Network
	rng *rand.Rand

	// Path amplitude gains.
	gClientAP, gAPClient   float64
	gClientJam, gAPJam     float64
	gJamAP, gJamClient     float64
	noisePower             float64
	apNoise, clientNoise   *dsp.NoiseSource
	jamNoise               *dsp.NoiseSource
	contNoiseAP, contNoise *dsp.NoiseSource // continuous jammer processes

	jammer *radio.N210

	// Measurement accumulators.
	jamPowerAcc   float64
	jamActiveN    int
	sigPowerAtAP  float64
	totalSamples  int
	jamTXSamples  int
	downResampler *dsp.Resampler // 25 -> 20 MSPS for the jam TX path

	*exchangeScratch
}

func newSim(link LinkConfig, jam JammerConfig, sc *exchangeScratch) (*sim, error) {
	net := testbed.New()
	if err := net.SetVariableAttenuator(jam.VariableAttDB); err != nil {
		return nil, err
	}
	s := &sim{
		link: link,
		jcfg: jam,
		net:  net,
		rng:  rand.New(rand.NewSource(link.Seed)),

		gClientAP:  net.PathGain(testbed.PortClient, testbed.PortAP),
		gAPClient:  net.PathGain(testbed.PortAP, testbed.PortClient),
		gClientJam: net.PathGain(testbed.PortClient, testbed.PortJammerRX),
		gAPJam:     net.PathGain(testbed.PortAP, testbed.PortJammerRX),
		gJamAP:     net.PathGain(testbed.PortJammerTX, testbed.PortAP),
		gJamClient: net.PathGain(testbed.PortJammerTX, testbed.PortClient),

		noisePower: dsp.FromDB(link.NoiseFloorDB),

		exchangeScratch: sc,
	}
	s.apNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+101)
	s.clientNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+202)
	s.jamNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+303)

	switch jam.Mode {
	case JamOff:
	case JamContinuous:
		gain := jam.Personality.Gain
		pAtAP := gain * gain * s.gJamAP * s.gJamAP
		pAtClient := gain * gain * s.gJamClient * s.gJamClient
		s.contNoiseAP = dsp.NewNoiseSource(pAtAP, link.Seed+404)
		s.contNoise = dsp.NewNoiseSource(pAtClient, link.Seed+505)
	case JamReactive:
		if err := s.setupReactiveJammer(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("iperf: unknown jam mode %v", jam.Mode)
	}
	s.downResampler = dsp.NewResampler(4, 5, 8)
	if s.ackWave == nil {
		ack, err := wifi.Modulate(wifi.AppendFCS(make([]byte, mac.AckBytes-4)),
			wifi.TxConfig{Rate: mac.AckRate, ScramblerSeed: 0x11})
		if err != nil {
			return nil, err
		}
		s.ackWave = ack
	}
	return s, nil
}

func (s *sim) setupReactiveJammer() error {
	r := radio.New()
	s.jammer = r
	if err := r.SetSourceRate(wifi.SampleRate); err != nil {
		return err
	}
	h := host.New(r.Core())
	if _, err := h.ProgramJammer(s.jcfg.Personality); err != nil {
		return err
	}
	if len(s.jcfg.HostStream) > 0 {
		r.Core().Jammer().SetHostStream(s.jcfg.HostStream)
	}
	if err := h.Arm(host.Detector{EnergyThresholdDB: host.EnergyRiseDB}); err != nil {
		return err
	}
	r.Start()
	return nil
}

// jamContribution streams the jammer's receive mix (already at 20 MSPS,
// amplitude-scaled per path) through the DSP core and returns the jammer's
// transmit waveform translated back to the 20 MSPS station domain. The mix
// is scratch: the jammer's front-end noise is added to it in place. The
// result is valid until the next call.
func (s *sim) jamContribution(rxAtJam dsp.Samples) (dsp.Samples, error) {
	if s.jammer == nil {
		s.jamOut = append(s.jamOut[:0], make(dsp.Samples, len(rxAtJam))...)
		return s.jamOut, nil
	}
	// Jammer front-end noise keeps the energy differentiator honest.
	s.jamNoise.AddTo(rxAtJam)
	tx25, err := s.jammer.Process(rxAtJam)
	if err != nil {
		return nil, err
	}
	// Active-sample accounting in the 20 MSPS station domain.
	s.jamTXSamples += countActive(tx25) * 4 / 5
	tx20 := s.downResampler.Process(tx25)
	if len(tx20) < len(rxAtJam) {
		out := append(s.jamOut[:0], tx20...)
		s.jamOut = append(out, make(dsp.Samples, len(rxAtJam)-len(tx20))...)
		return s.jamOut, nil
	}
	return tx20[:len(rxAtJam)], nil
}

func countActive(x dsp.Samples) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// pad lays out one transmission in the TX scratch: leadSamples of quiet,
// the waveform, and leadSamples of quiet again.
func (s *sim) pad(wave dsp.Samples) dsp.Samples {
	buf := append(s.txBuf[:0], make(dsp.Samples, leadSamples+len(wave)+leadSamples)...)
	copy(buf[leadSamples:], wave)
	s.txBuf = buf
	return buf
}

// scaleInto writes src scaled by the real gain g into dst, grown to
// len(src), and returns it. Each sample takes Samples.Scale's product.
func scaleInto(dst, src dsp.Samples, g float64) dsp.Samples {
	if cap(dst) < len(src) {
		dst = make(dsp.Samples, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * complex(g, 0)
	}
	return dst
}

// addScaled accumulates src scaled by the real gain g into dst over the
// shorter length, with Samples.Scale's product and Samples.Add's sum.
func addScaled(dst, src dsp.Samples, g float64) {
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i] += src[i] * complex(g, 0)
	}
}

// exchange performs one data+ACK over-the-air transaction and reports
// whether the client got its ACK.
func (s *sim) exchange(att mac.TxAttempt, psdu []byte) (bool, error) {
	txData, err := s.txc.TxFrame(s.txData[:0], psdu, wifi.TxConfig{
		Rate:          att.Rate,
		ScramblerSeed: uint8(s.rng.Intn(127) + 1),
	})
	if err != nil {
		return false, err
	}
	s.txData = txData

	// --- Data frame: client -> AP, jammer listening on port 5. ---
	clientTX := s.pad(txData)
	n := len(clientTX)
	s.jamRX = scaleInto(s.jamRX, clientTX, s.gClientJam)
	jamTX, err := s.jamContribution(s.jamRX)
	if err != nil {
		return false, err
	}

	apRX := scaleInto(s.stationRX, clientTX, s.gClientAP)
	s.stationRX = apRX
	addScaled(apRX, jamTX, s.gJamAP)
	s.accumulateSIR(txData, jamTX)
	if s.contNoiseAP != nil {
		s.contNoiseAP.AddTo(apRX)
		s.jamTXSamples += n
		s.accumulateContinuousSIR(txData, n)
	}
	s.apNoise.AddTo(apRX)
	s.totalSamples += n

	res, err := s.rxc.RxFrame(apRX, ltsOffset-48, ltsOffset+48)
	if err != nil {
		return false, nil
	}
	if _, ok := wifi.CheckFCS(res.PSDU); !ok {
		// The jammer still hears the tail/ACK-gap; keep its clock moving so
		// burst state drains realistically before the retry.
		return false, nil
	}

	// --- ACK: AP -> client, SIFS later. ---
	apTX := s.pad(s.ackWave)
	an := len(apTX)
	s.jamRX = scaleInto(s.jamRX, apTX, s.gAPJam)
	jamTXack, err := s.jamContribution(s.jamRX)
	if err != nil {
		return false, err
	}
	clientRX := scaleInto(s.stationRX, apTX, s.gAPClient)
	s.stationRX = clientRX
	addScaled(clientRX, jamTXack, s.gJamClient)
	if s.contNoise != nil {
		s.contNoise.AddTo(clientRX)
		s.jamTXSamples += an
	}
	s.clientNoise.AddTo(clientRX)
	s.totalSamples += an

	ackRes, err := s.rxc.RxFrame(clientRX, ltsOffset-48, ltsOffset+48)
	if err != nil {
		return false, nil
	}
	_, ok := wifi.CheckFCS(ackRes.PSDU)
	return ok, nil
}

// accumulateSIR records signal and jam powers at the AP for the measured
// SIR of Figs. 10/11 (jam power during active transmission only).
func (s *sim) accumulateSIR(txData, jamTX dsp.Samples) {
	s.sigPowerAtAP = txData.Power() * s.gClientAP * s.gClientAP
	for _, v := range jamTX {
		if v != 0 {
			p := real(v)*real(v) + imag(v)*imag(v)
			s.jamPowerAcc += p * s.gJamAP * s.gJamAP
			s.jamActiveN++
		}
	}
}

func (s *sim) accumulateContinuousSIR(txData dsp.Samples, n int) {
	s.sigPowerAtAP = txData.Power() * s.gClientAP * s.gClientAP
	s.jamPowerAcc += s.contNoiseAP.Power() * float64(n)
	s.jamActiveN += n
}

func (s *sim) measuredSIR() float64 {
	if s.jamActiveN == 0 || s.sigPowerAtAP == 0 {
		return math.Inf(1)
	}
	jp := s.jamPowerAcc / float64(s.jamActiveN)
	return dsp.DB(s.sigPowerAtAP / jp)
}

func (s *sim) run() (*Result, error) {
	seq := mac.NewSequencer(s.link.StartRate, s.link.Seed+7)
	res := &Result{Offered: s.link.Packets}

	// Continuous jamming above the CCA threshold keeps the client deferring
	// forever: the paper's "connection to the access point was lost".
	if s.jcfg.Mode == JamContinuous {
		ambient := s.contNoise.Power()
		if mac.CCA(ambient, s.noisePower) {
			res.LinkDropped = true
			res.SIRdB = dsp.DB(s.sigPowerAtAPEstimate() /
				s.contNoiseAPPower())
			res.FinalRate = seq.Rate()
			return res, nil
		}
	}

	payload := make([]byte, s.link.PayloadBytes)
	for pkt := 0; pkt < s.link.Packets; pkt++ {
		s.rng.Read(payload)
		var header [mac.HeaderBytes]byte
		header[0] = 0x08 // data frame control
		header[22] = byte(pkt)
		header[23] = byte(pkt >> 8)
		s.mpdu = append(append(s.mpdu[:0], header[:]...), payload...)
		s.psdu = wifi.AppendFCSTo(s.psdu[:0], s.mpdu)
		psdu := s.psdu

		var xerr error
		ok, err := seq.SendMSDU(s.link.PayloadBytes, func(att mac.TxAttempt) bool {
			got, e := s.exchange(att, psdu)
			if e != nil {
				xerr = e
			}
			return got
		})
		if err != nil {
			return nil, err
		}
		if xerr != nil {
			return nil, xerr
		}
		if ok {
			res.Delivered++
		}
		if s.link.LinkDropFailures > 0 &&
			seq.ConsecutiveMSDUFailures() >= s.link.LinkDropFailures {
			res.LinkDropped = true
			break
		}
	}

	res.PRR = float64(res.Delivered) / float64(res.Offered)
	res.Elapsed = seq.Elapsed()
	if res.LinkDropped {
		res.BandwidthKbps = 0
	} else if res.Elapsed > 0 {
		bits := float64(res.Delivered) * float64(s.link.PayloadBytes) * 8
		res.BandwidthKbps = bits / res.Elapsed.Seconds() / 1000
	}
	res.SIRdB = s.measuredSIR()
	res.FinalRate = seq.Rate()
	if s.totalSamples > 0 {
		res.JamAirtimeFrac = float64(s.jamTXSamples) / float64(s.totalSamples)
	}
	return res, nil
}

// sigPowerAtAPEstimate predicts the client signal power at the AP before
// any frame has been sent (for the CCA-blocked early exit).
func (s *sim) sigPowerAtAPEstimate() float64 {
	// OFDM frames have unit-order mean power (52/64 from the preamble).
	return 52.0 / 64 * s.gClientAP * s.gClientAP
}

func (s *sim) contNoiseAPPower() float64 {
	if s.contNoiseAP == nil {
		return math.Inf(-1)
	}
	return s.contNoiseAP.Power()
}
