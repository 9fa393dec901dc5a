package core

// The user-register map of the custom DSP core. The design uses 24 of the
// 255 available registers (paper §2.2) to make every detection and jamming
// parameter run-time programmable from the host.
const (
	// RegXCorrCoefI0..+6 pack the 64 I-bank coefficients, ten 3-bit fields
	// per register (coefficient k of the register at bits 3k..3k+2).
	RegXCorrCoefI0 uint8 = 1 // .. 7
	// RegXCorrCoefQ0..+6 pack the Q bank the same way.
	RegXCorrCoefQ0 uint8 = 8 // .. 14
	// RegXCorrThreshold is the 32-bit trigger comparison threshold.
	RegXCorrThreshold uint8 = 15
	// RegEnergyConfig: bit0 enables energy-high, bit1 enables energy-low.
	RegEnergyConfig uint8 = 16
	// RegEnergyThreshHigh / Low hold thresholds in centi-dB (300..3000).
	RegEnergyThreshHigh uint8 = 17
	RegEnergyThreshLow  uint8 = 18
	// RegTriggerConfig packs the event sequence: bits 0-3 stage 1, 4-7
	// stage 2, 8-11 stage 3 (trigger.Event values; 0 = unused), bits 12-13
	// the stage count, bit 14 the fusion mode (0 = sequence, 1 = any).
	RegTriggerConfig uint8 = 19
	// RegTriggerWindow is the sequence completion window in samples.
	RegTriggerWindow uint8 = 20
	// RegJammerWaveform selects the waveform preset (jammer.Waveform).
	RegJammerWaveform uint8 = 21
	// RegJammerUptime is the burst length in samples (32-bit).
	RegJammerUptime uint8 = 22
	// RegJammerDelay is the trigger-to-jam delay in samples.
	RegJammerDelay uint8 = 23
	// RegJammerGainAnt: bits 0-15 TX gain in milli-units (1000 = unity).
	// Bits 16-19 are the N210's antenna-control GPIO lines; the host writes
	// them as 0 and the core ignores them.
	RegJammerGainAnt uint8 = 24
)

// NumUsedRegisters is the count of registers the design occupies, matching
// the paper's "24 of these user registers".
const NumUsedRegisters = 24

// coeffsPerReg is how many 3-bit coefficients share one 32-bit register.
const coeffsPerReg = 10

// numCoefRegs is the register span of one coefficient bank (ceil(64/10)).
const numCoefRegs = 7
