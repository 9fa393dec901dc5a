// Package defense implements the countermeasure side the paper's
// conclusion anticipates: "The testbed presented in this paper can be an
// effective tool for studying and developing countermeasures to a new
// series of real-time over-the-air physical layer attacks."
//
// Two countermeasures are provided:
//
//   - jamming detection in the style of Xu et al. [15] ("The feasibility of
//     launching and detecting jamming attacks in wireless networks"):
//     a consistency check of a run's delivery ratio, signal strength and
//     carrier-sense busy time that classifies the link as clean, weak,
//     continuously jammed, or reactively jammed;
//   - an iJam-style self-jamming secrecy scheme after Gollakota & Katabi
//     [5,6]: the transmitter repeats every data symbol and the intended
//     receiver jams one random copy of each pair with its own radio, so an
//     eavesdropper cannot tell which copy is clean while the receiver, who
//     chose, always can.
package defense

import "fmt"

// Diagnosis is DiagnoseAggregates' classification of a link.
type Diagnosis uint8

// Possible verdicts.
const (
	// VerdictClean: delivery is consistent with signal strength.
	VerdictClean Diagnosis = iota
	// VerdictWeakSignal: losses explained by a genuinely weak link.
	VerdictWeakSignal
	// VerdictContinuousJamming: carrier sense pinned busy, nothing sent.
	VerdictContinuousJamming
	// VerdictReactiveJamming: strong signal, idle medium, yet the frames
	// die — the consistency violation that betrays a reactive jammer.
	VerdictReactiveJamming
)

func (d Diagnosis) String() string {
	switch d {
	case VerdictClean:
		return "clean"
	case VerdictWeakSignal:
		return "weak-signal"
	case VerdictContinuousJamming:
		return "continuous-jamming"
	case VerdictReactiveJamming:
		return "reactive-jamming"
	default:
		return fmt.Sprintf("Diagnosis(%d)", uint8(d))
	}
}

// The consistency-check thresholds of Xu et al.: PDR alone cannot tell
// jamming from a poor link, but PDR combined with RSSI and carrier-sense
// busy time can.
const (
	// pdrBroken is the delivery ratio at or below which the link counts as
	// broken.
	pdrBroken = 0.35
	// rssiGoodDB is the signal margin at or above which the signal is "too
	// good to be failing".
	rssiGoodDB = 15
	// busyBlocked is the busy fraction at or above which the medium counts
	// as blocked.
	busyBlocked = 0.8
)

// DiagnoseAggregates classifies a link from run-level aggregates (e.g. an
// iperf result): its packet delivery ratio, mean RSSI margin over the noise
// floor (dB), and the fraction of attempts carrier sense found busy.
func DiagnoseAggregates(pdr, meanRSSIdB, busyFrac float64) Diagnosis {
	switch {
	case busyFrac >= busyBlocked && pdr <= pdrBroken:
		return VerdictContinuousJamming
	case pdr <= pdrBroken && meanRSSIdB >= rssiGoodDB:
		return VerdictReactiveJamming
	case pdr <= pdrBroken:
		return VerdictWeakSignal
	default:
		return VerdictClean
	}
}
