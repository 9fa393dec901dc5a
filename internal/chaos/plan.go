// Package chaos is the deterministic fault-injection harness: it wraps the
// existing datapath layers with seeded adversarial behavior — register-bus
// glitches, receive-stream corruption, and timing skew — and then asserts
// that the datapath's structural invariants survive the campaign. The real
// USRP drops samples, loses setting-bus writes and drifts its clock; none of
// that may break the properties the rest of the test suite relies on
// (block/sample parity, kernel bit-exactness, counter/journal agreement,
// engagement bookkeeping, the Tinit turnaround bound).
//
// Everything is driven by a Plan: a seed plus per-class severity knobs. All
// randomness flows from one rand.Rand seeded by the plan, every injected
// fault is recorded with the hardware-clock cycle at which it was applied,
// and the campaign report contains no wall-clock state — so the same plan
// replays bit-identically, and a report diff is a regression signal.
package chaos

import (
	"encoding/json"
	"fmt"
)

// FaultKind identifies one class of injected fault in the ledger.
type FaultKind uint8

// The fault taxonomy. Register faults model UHD setting-bus glitches,
// stream faults model front-end/transport corruption on the receive path,
// timing faults model clock drift and observability back-pressure.
const (
	// FaultRegDrop is a register write lost in flight (never committed).
	// Arg: address<<32 | intended value.
	FaultRegDrop FaultKind = iota
	// FaultRegFlip is a single bit error on the data bus; the corrupted
	// value commits. Arg: address<<32 | committed (flipped) value.
	FaultRegFlip
	// FaultRegDelay is a write held back and committed whole blocks later
	// (a stalled setting-bus transaction). Arg: address<<32 | value.
	FaultRegDelay
	// FaultStreamDrop removes consecutive receive samples (overflow "O" on
	// a real N210). Arg: block offset<<32 | samples removed.
	FaultStreamDrop
	// FaultStreamDup duplicates a span of receive samples (re-delivered
	// transport frame). Arg: block offset<<32 | samples duplicated.
	FaultStreamDup
	// FaultStreamSaturate scales a span hard into ADC clipping.
	// Arg: block offset<<32 | span length.
	FaultStreamSaturate
	// FaultStreamDCStick sticks the I rail at a DC level for a span (a
	// stuck ADC bit / mixer rail). Arg: block offset<<32 | span length.
	FaultStreamDCStick
	// FaultClockRamp applies a sample-clock offset ramp through
	// internal/impair for the whole campaign. Arg: offset in ppm.
	FaultClockRamp
	// FaultJournalPressure shrinks the telemetry journal so the ring wraps
	// under load. Arg: journal depth in events.
	FaultJournalPressure

	numFaultKinds
)

// String returns the ledger name of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultRegDrop:
		return "reg-drop"
	case FaultRegFlip:
		return "reg-flip"
	case FaultRegDelay:
		return "reg-delay"
	case FaultStreamDrop:
		return "stream-drop"
	case FaultStreamDup:
		return "stream-dup"
	case FaultStreamSaturate:
		return "stream-saturate"
	case FaultStreamDCStick:
		return "stream-dc-stick"
	case FaultClockRamp:
		return "clock-ramp"
	case FaultJournalPressure:
		return "journal-pressure"
	default:
		return "fault(?)"
	}
}

// MarshalJSON emits the symbolic name so reports stay readable and stable.
func (k FaultKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Fault is one ledger entry: what was injected and at which hardware-clock
// cycle of the primary core. The ledger is the replay witness — two runs of
// the same plan must produce identical ledgers.
type Fault struct {
	// Cycle is the 100 MHz hardware-clock cycle at which the fault applied.
	Cycle uint64 `json:"cycle"`
	// Kind identifies the fault class.
	Kind FaultKind `json:"kind"`
	// Arg carries kind-specific data (see the FaultKind docs).
	Arg uint64 `json:"arg"`
}

// Plan is the full configuration of one fault campaign. The zero value (plus
// a seed) is the control plan: no faults armed. All probabilities are per
// opportunity — per register write for the Reg knobs, per processed block
// for the Stream knobs.
type Plan struct {
	// Seed drives every random decision of the campaign (fault draws, noise,
	// stimulus). Same plan ⇒ same run, bit for bit.
	Seed int64 `json:"seed"`

	// Register-bus faults (applied per host register write).
	RegDropProb    float64 `json:"reg_drop_prob,omitempty"`
	RegFlipProb    float64 `json:"reg_flip_prob,omitempty"`
	RegDelayProb   float64 `json:"reg_delay_prob,omitempty"`
	RegDelayBlocks int     `json:"reg_delay_blocks,omitempty"` // hold time, in stimulus blocks (default 2)

	// Stream faults (applied per stimulus block).
	StreamDropProb float64 `json:"stream_drop_prob,omitempty"`
	StreamDropMax  int     `json:"stream_drop_max,omitempty"` // max samples removed (default 32)
	StreamDupProb  float64 `json:"stream_dup_prob,omitempty"`
	StreamDupMax   int     `json:"stream_dup_max,omitempty"` // max samples duplicated (default 32)
	StreamSatProb  float64 `json:"stream_sat_prob,omitempty"`
	StreamSatGain  float64 `json:"stream_sat_gain,omitempty"` // amplitude scale into clipping (default 1000)
	StreamSatLen   int     `json:"stream_sat_len,omitempty"`  // max clipped span (default 64)
	StreamDCProb   float64 `json:"stream_dc_prob,omitempty"`
	StreamDCLevel  float64 `json:"stream_dc_level,omitempty"` // stuck rail level (default 0.9)
	StreamDCLen    int     `json:"stream_dc_len,omitempty"`   // max stuck span (default 64)

	// Timing faults.
	ClockOffsetPPM float64 `json:"clock_offset_ppm,omitempty"` // sample-clock ramp via internal/impair
	JournalDepth   int     `json:"journal_depth,omitempty"`    // 0 = default telemetry depth
}

// withDefaults fills the non-probability knobs.
func (p Plan) withDefaults() Plan {
	if p.RegDelayBlocks <= 0 {
		p.RegDelayBlocks = 2
	}
	if p.StreamDropMax <= 0 {
		p.StreamDropMax = 32
	}
	if p.StreamDupMax <= 0 {
		p.StreamDupMax = 32
	}
	if p.StreamSatGain <= 0 {
		// The stimulus rides ~60 dB below full scale; drive the span far
		// past the quantizer's rails so the ADC genuinely clips.
		p.StreamSatGain = 1000
	}
	if p.StreamSatLen <= 0 {
		p.StreamSatLen = 64
	}
	if p.StreamDCLevel == 0 {
		p.StreamDCLevel = 0.9
	}
	if p.StreamDCLen <= 0 {
		p.StreamDCLen = 64
	}
	return p
}

// validate rejects out-of-range knobs with a diagnosable error.
func (p Plan) validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"reg_drop_prob", p.RegDropProb},
		{"reg_flip_prob", p.RegFlipProb},
		{"reg_delay_prob", p.RegDelayProb},
		{"stream_drop_prob", p.StreamDropProb},
		{"stream_dup_prob", p.StreamDupProb},
		{"stream_sat_prob", p.StreamSatProb},
		{"stream_dc_prob", p.StreamDCProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.JournalDepth < 0 {
		return fmt.Errorf("chaos: journal_depth = %d negative", p.JournalDepth)
	}
	return nil
}
