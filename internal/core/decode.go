package core

import (
	"repro/internal/fixed"
	"repro/internal/jammer"
	"repro/internal/trigger"
	"repro/internal/xcorr"
)

// Register decode: the hardware side of the user bus. Each write lands in
// the register file and the affected block picks its configuration up
// immediately, which is what lets the host change jammer personalities at
// run time without reprogramming the FPGA (§4.3).

func (c *Core) installRegisterDecode() {
	for a := RegXCorrCoefI0; a < RegXCorrCoefI0+2*numCoefRegs; a++ {
		c.bus.Watch(a, func(uint8, uint32) { c.reloadCoefficients() })
	}
	c.bus.Watch(RegXCorrThreshold, func(_ uint8, v uint32) {
		c.xc.SetThreshold(v)
	})
	c.bus.Watch(RegEnergyConfig, func(_ uint8, v uint32) { c.reloadEnergy() })
	c.bus.Watch(RegEnergyThreshHigh, func(uint8, uint32) { c.reloadEnergy() })
	c.bus.Watch(RegEnergyThreshLow, func(uint8, uint32) { c.reloadEnergy() })
	c.bus.Watch(RegTriggerConfig, func(uint8, uint32) { c.reloadTrigger() })
	c.bus.Watch(RegTriggerWindow, func(uint8, uint32) { c.reloadTrigger() })
	c.bus.Watch(RegJammerWaveform, func(_ uint8, v uint32) {
		// Out-of-range presets are ignored, as hardware would.
		_ = c.jam.SetWaveform(jammer.Waveform(v & 0x3))
	})
	c.bus.Watch(RegJammerUptime, func(_ uint8, v uint32) {
		if v == 0 {
			v = 1
		}
		_ = c.jam.SetUptimeSamples(uint64(v))
	})
	c.bus.Watch(RegJammerDelay, func(_ uint8, v uint32) {
		c.jam.SetDelaySamples(uint64(v))
	})
	c.bus.Watch(RegJammerGainAnt, func(_ uint8, v uint32) {
		c.jam.SetGain(float64(v&0xFFFF) / 1000)
	})
}

// reloadCoefficients unpacks both banks from the register file into the
// correlator.
func (c *Core) reloadCoefficients() {
	unpack := func(base uint8) []fixed.Coeff3 {
		out := make([]fixed.Coeff3, 0, xcorr.Length)
		for r := 0; r < numCoefRegs; r++ {
			v, err := c.bus.Read(base + uint8(r))
			if err != nil {
				return nil
			}
			for k := 0; k < coeffsPerReg && len(out) < xcorr.Length; k++ {
				out = append(out, fixed.UnpackCoeff3(v>>(3*k)))
			}
		}
		return out
	}
	i := unpack(RegXCorrCoefI0)
	q := unpack(RegXCorrCoefQ0)
	if len(i) == xcorr.Length && len(q) == xcorr.Length {
		_ = c.xc.SetCoefficients(i, q)
	}
}

func (c *Core) reloadEnergy() {
	cfg, _ := c.bus.Read(RegEnergyConfig)
	if cfg&1 != 0 {
		v, _ := c.bus.Read(RegEnergyThreshHigh)
		_ = c.en.SetHighThresholdDB(float64(v) / 100)
	} else {
		c.en.DisableHigh()
	}
	if cfg&2 != 0 {
		v, _ := c.bus.Read(RegEnergyThreshLow)
		_ = c.en.SetLowThresholdDB(float64(v) / 100)
	} else {
		c.en.DisableLow()
	}
}

func (c *Core) reloadTrigger() {
	cfg, _ := c.bus.Read(RegTriggerConfig)
	window, _ := c.bus.Read(RegTriggerWindow)
	count := int((cfg >> 12) & 0x3)
	if count == 0 {
		return
	}
	events := make([]trigger.Event, 0, trigger.MaxStages)
	for s := 0; s < count && s < trigger.MaxStages; s++ {
		events = append(events, trigger.Event((cfg>>(4*s))&0xF))
	}
	mode := FusionSequence
	if cfg&(1<<14) != 0 {
		mode = FusionAny
	}
	_ = c.SetFusion(mode, events, uint64(window))
}

// PackCoefficients converts a 64-tap coefficient bank into its 7-register
// bus image; the host package uses it when programming the correlator.
func PackCoefficients(bank []fixed.Coeff3) [numCoefRegs]uint32 {
	var regs [numCoefRegs]uint32
	for i, cf := range bank {
		if i >= xcorr.Length {
			break
		}
		r, k := i/coeffsPerReg, i%coeffsPerReg
		regs[r] |= cf.Pack() << (3 * k)
	}
	return regs
}
