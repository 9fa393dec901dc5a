// Package impair models analog front-end impairments of real SDR hardware
// — carrier frequency offset, IQ imbalance, DC offset, phase noise, and
// sample-clock offset. The simulation's detection curves sit a few dB to
// the left of the paper's measured ones (EXPERIMENTS.md E2/E4) precisely
// because the default front end is ideal; this package provides the
// knobs to close that gap and the ablation experiments use it to show
// which impairment costs how much.
package impair

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
)

// Config selects impairment severities. The zero value is a transparent
// front end.
type Config struct {
	// CFOHz is the carrier frequency offset between transmitter and
	// receiver (e.g. ±2.5 ppm of 2.484 GHz ≈ ±6.2 kHz for TCXO-grade
	// oscillators).
	CFOHz float64
	// SampleRate is the stream rate the offsets are applied at (required
	// when CFOHz, PhaseNoise or ClockOffsetPPM are nonzero).
	SampleRate float64
	// IQGainDB is the amplitude imbalance between the I and Q rails.
	IQGainDB float64
	// IQPhaseDeg is the quadrature skew in degrees.
	IQPhaseDeg float64
	// DCOffset is an additive complex bias (ADC/mixer leakage), as a
	// fraction of full scale.
	DCOffset complex128
	// PhaseNoiseRadRMS is the per-sample random-walk phase step RMS.
	PhaseNoiseRadRMS float64
	// ClockOffsetPPM is the sample-clock error in parts per million,
	// modeled as a slow linear phase slip of the resampling point.
	ClockOffsetPPM float64
	// Seed drives the phase-noise process.
	Seed int64
}

// Chain applies a Config to a sample stream with persistent state, so
// consecutive blocks are continuous. Construct with New.
type Chain struct {
	cfg   Config
	phase float64 // accumulated CFO phase
	pn    float64 // phase-noise random walk
	rng   *rand.Rand
	// IQ imbalance in the α·x + β·conj(x) form.
	alpha, beta complex128
	// Fractional resampling state for clock offset.
	frac float64
	prev complex128
	has  bool
}

// New returns a chain for the config.
func New(cfg Config) *Chain {
	c := &Chain{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g := math.Pow(10, cfg.IQGainDB/20)
	phi := cfg.IQPhaseDeg * math.Pi / 180
	// Standard IQ imbalance model: I' = I, Q' = g·(Q·cosφ + I·sinφ)
	// expressed as α·x + β·conj(x).
	c.alpha = complex((1+g*math.Cos(phi))/2, g*math.Sin(phi)/2)
	c.beta = complex((1-g*math.Cos(phi))/2, g*math.Sin(phi)/2)
	return c
}

// ProcessSample applies the impairments to one sample.
func (c *Chain) ProcessSample(x complex128) complex128 {
	// Sample clock offset: linear interpolation between consecutive
	// samples with a slowly drifting fractional position.
	if c.cfg.ClockOffsetPPM != 0 {
		if !c.has {
			c.prev, c.has = x, true
		}
		f := complex(c.frac, 0)
		interp := c.prev*(1-f) + x*f
		c.prev = x
		c.frac += c.cfg.ClockOffsetPPM * 1e-6
		if c.frac >= 1 {
			c.frac -= 1
		}
		if c.frac < 0 {
			c.frac += 1
		}
		x = interp
	}
	// CFO and phase noise.
	if c.cfg.CFOHz != 0 && c.cfg.SampleRate > 0 {
		c.phase += 2 * math.Pi * c.cfg.CFOHz / c.cfg.SampleRate
		if c.phase > math.Pi {
			c.phase -= 2 * math.Pi
		}
	}
	if c.cfg.PhaseNoiseRadRMS > 0 {
		c.pn += c.rng.NormFloat64() * c.cfg.PhaseNoiseRadRMS
	}
	if ph := c.phase + c.pn; ph != 0 {
		x *= complex(math.Cos(ph), math.Sin(ph))
	}
	// IQ imbalance.
	if c.cfg.IQGainDB != 0 || c.cfg.IQPhaseDeg != 0 {
		x = c.alpha*x + c.beta*complex(real(x), -imag(x))
	}
	// DC offset.
	return x + c.cfg.DCOffset
}

// ProcessInto runs x through the chain into dst (which must be at least
// len(x) long) without allocating. dst and x may alias: each output sample
// is written only after its input sample has been consumed.
func (c *Chain) ProcessInto(dst, x dsp.Samples) {
	for i, v := range x {
		dst[i] = c.ProcessSample(v)
	}
}

// TypicalUSRP returns impairments representative of two free-running
// USRP N210s with TCXO references at the given carrier frequency: ±2 ppm
// relative CFO, mild IQ imbalance, the residual DC spur left after UHD's
// DC-offset calibration, and oscillator phase noise. Note the DC term: the
// sign-bit correlator is acutely sensitive to uncorrected DC (a bias much
// larger than the signal freezes the slicer outputs), which is why the
// calibrated residual — not the raw mixer leakage — is the right number
// here; the "harsh" ablation case shows the uncalibrated failure mode.
func TypicalUSRP(carrierHz, sampleRate float64, seed int64) Config {
	return Config{
		CFOHz:            2e-6 * carrierHz,
		SampleRate:       sampleRate,
		IQGainDB:         0.3,
		IQPhaseDeg:       2,
		DCOffset:         complex(2e-5, -1e-5),
		PhaseNoiseRadRMS: 0.002,
		ClockOffsetPPM:   2,
		Seed:             seed,
	}
}
