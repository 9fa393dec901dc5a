package experiments

import (
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/radio"
	"repro/internal/telemetry"
)

// One stream, many detectors. In the paper one DDC output feeds the custom
// core, and every detector judges the same samples. So here: a stream
// synthesizes its input once (frames, SNR scaling, impairments, noise),
// resamples each block once through one DDC, and hands the 25 MSPS block to
// one armed radio per configuration that shares the stream. Each radio sees
// the block its own DDC would hand it, so it counts and transmits the same.

// A probe is one armed radio of a stream and what it counts.
type probe struct {
	det   host.Detector
	jam   host.Personality
	count func(core.Stats) uint64 // the statistic whose rise is tallied
	rec   *telemetry.Live         // the core's recorder, when non-nil
	out   *tally                  // where the stream's run leaves the tally
}

// A tally is what a probe counted: the blocks in which its count rose, and
// the whole rise.
type tally struct {
	hits  int
	edges uint64
}

// pd is the fraction of n blocks in which the count rose.
func (t tally) pd(n int) float64 { return float64(t.hits) / float64(n) }

// point reads the tally of a detection point of frames frames at snrDB.
func (t tally) point(snrDB float64, frames int) DetectionPoint {
	return DetectionPoint{SNRdB: snrDB, Pd: t.pd(frames), DetectionsPerFrame: float64(t.edges) / float64(frames)}
}

// detectorProbe arms d behind a silent jammer (minimum burst, zero gain)
// and counts the correlator's edges when d has a template, the energy-high
// edges otherwise.
func detectorProbe(d host.Detector, out *tally) probe {
	p := probe{det: d, jam: host.Personality{Gain: 0.001}, out: out,
		count: func(s core.Stats) uint64 { return s.EnergyHighDetections }}
	if len(d.Template) > 0 {
		p.count = func(s core.Stats) uint64 { return s.XCorrDetections }
	}
	return p
}

// A stream is one synthesized receive input at sourceHz and the probes
// that judge it.
type stream struct {
	sourceHz, blocks int
	// block returns block i of the input; run calls it once for each i in
	// order and is done with the block before the next call.
	block func(i int) (dsp.Samples, error)
	// lead is the number of quiet samples at sourceHz before the frame in
	// each block; zero when the blocks carry no frames. Every block of
	// frames marks the frame's start in each probe's recorder.
	lead   int
	probes []probe
	// after, when set, sees each probe's radio and transmit output after
	// every block.
	after func(radios []*radio.N210, tx []dsp.Samples)
}

// run synthesizes s block by block through one DDC and one started radio
// per probe, at 25 MSPS behind that DDC, and leaves each probe's tally in
// its out.
func (s *stream) run() error {
	ddc, err := radio.NewDDC(s.sourceHz)
	if err != nil {
		return err
	}
	radios := make([]*radio.N210, len(s.probes))
	for k, p := range s.probes {
		radios[k] = radio.New()
		h := host.New(radios[k].Core())
		if err := h.Arm(p.det); err != nil {
			return err
		}
		if _, err := h.ProgramJammer(p.jam); err != nil {
			return err
		}
		radios[k].Start()
		if p.rec != nil {
			radios[k].Core().SetRecorder(p.rec)
		}
	}
	// The frame start in core samples, converted through the DDC ratio as
	// radio.MarkFrame converts it.
	mark := s.lead * fpga.SampleRateHz / s.sourceHz
	tx := make([]dsp.Samples, len(radios))
	for i := 0; i < s.blocks; i++ {
		in, err := s.block(i)
		if err != nil {
			return err
		}
		if ddc != nil {
			in = ddc.Process(in)
		}
		for k, r := range radios {
			p := s.probes[k]
			if s.lead > 0 {
				r.MarkFrame(mark)
			}
			before := p.count(r.Core().Stats())
			if tx[k], err = r.Process(in); err != nil {
				return err
			}
			if d := p.count(r.Core().Stats()) - before; d > 0 {
				p.out.hits++
				p.out.edges += d
			}
		}
		if s.after != nil {
			s.after(radios, tx)
		}
	}
	return nil
}

// measure runs a plan's streams across the worker pool in order and
// returns the plan's result. Each stream arms its own radios and seeds its
// own input, so the result is identical at any pool width.
func measure[R any](ss []*stream, result func() R, err error) (R, error) {
	if err == nil {
		err = forEach(len(ss), func(i int) error { return ss[i].run() })
	}
	if err != nil {
		var zero R
		return zero, err
	}
	return result(), nil
}

// overNoise returns the block function of frames at snrDB over the noise
// floor: frame seq between gap zero samples on either side, scaled to the
// SNR, through a front end with impairments imp when imp is not ideal,
// plus noise drawn from noiseSeed.
func overNoise(frame func(seq int) (dsp.Samples, error), gap int, snrDB float64, imp impair.Config, noiseSeed int64) func(int) (dsp.Samples, error) {
	var front *impair.Chain
	if imp != (impair.Config{}) {
		front = impair.New(imp)
	}
	noise := dsp.NewNoiseSource(noiseFloorPower, noiseSeed)
	var buf dsp.Samples
	return func(seq int) (dsp.Samples, error) {
		wave, err := frame(seq)
		if err != nil {
			return nil, err
		}
		buf = dsp.Frame(buf, wave, gap, gap, snrDB, noiseFloorPower)
		if front != nil {
			front.ProcessInto(buf, buf)
		}
		return noise.AddTo(buf), nil
	}
}
