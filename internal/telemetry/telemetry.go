// Package telemetry is the observability layer of the datapath: typed
// counters, log2-bucketed latency histograms, and a bounded event journal,
// all designed to cost nothing on the sample-clocked hot path.
//
// The paper's headline claims are timing claims — 80 ns trigger initiation,
// 1.28 µs / 2.56 µs detection latency — so the instrumentation is built
// around the hardware clock: every event carries the 100 MHz cycle count at
// which it occurred, histograms are kept in clock ticks, and the journal can
// be exported as Chrome trace_event JSON for chrome://tracing / Perfetto.
//
// One recorder type exists, Live, which captures everything; a core or
// detector without one (a nil *Live, the default everywhere) pays a nil
// check on the rare event edges. The datapath's plain counters (samples,
// detections, triggers) are *not* routed through the recorder — they live
// in a Counters struct that the core increments directly and that both
// core.Stats and the exposition endpoint read, so the two can never drift.
package telemetry

// EventKind identifies one kind of datapath event in the journal.
type EventKind uint8

// The event taxonomy of the datapath. Each event carries the hardware-clock
// cycle at which it occurred and one kind-specific argument.
const (
	// EvFrameStart marks the first sample of an injected frame entering the
	// core (emitted by measurement harnesses, not by the datapath itself).
	// Arg: unused.
	EvFrameStart EventKind = iota
	// EvXCorrEdge is a cross-correlator detection edge. Arg: unused.
	EvXCorrEdge
	// EvEnergyHighEdge is an energy-rise detection edge. Arg: unused.
	EvEnergyHighEdge
	// EvEnergyLowEdge is an energy-fall detection edge. Arg: unused.
	EvEnergyLowEdge
	// EvTriggerArm records the trigger state machine leaving idle.
	// Arg: the stage reached.
	EvTriggerArm
	// EvTriggerStage records an armed state machine advancing a stage.
	// Arg: the stage reached.
	EvTriggerStage
	// EvTriggerAbandon records a window expiry abandoning a partial
	// sequence. Arg: the stage abandoned from.
	EvTriggerAbandon
	// EvTriggerFire records a completed trigger (either the state machine
	// sequence or a FusionAny hit). Arg: unused.
	EvTriggerFire
	// EvJamDelay records the jammer entering its surgical delay phase.
	// Arg: unused.
	EvJamDelay
	// EvJamInit records the jammer starting to fill the DUC pipeline.
	// Arg: unused.
	EvJamInit
	// EvJamRFOn records the first jamming sample reaching RF. Arg: unused.
	EvJamRFOn
	// EvJamRFOff records the end of a jamming burst. Arg: unused.
	EvJamRFOff
	// EvHoldoffRelease closes a detection engagement: the jammer is idle
	// again and the detector holdoff has elapsed, so the datapath can
	// service a new packet. Arg: unused.
	EvHoldoffRelease
	// EvRegWrite records a user register-bus write.
	// Arg: address<<32 | value.
	EvRegWrite
	// EvHostPoll records the host application polling the feedback
	// counters. Arg: unused.
	EvHostPoll
	// EvAnomalyAlert records a streaming anomaly detector firing on a
	// watched metric (internal/telemetry/anomaly).
	// Arg: metric index<<32 | scaled robust z-score (milli-sigma).
	EvAnomalyAlert
	// EvFlightDump records the flight recorder capturing an incident dump
	// (internal/telemetry/flight). Arg: the trigger kind.
	EvFlightDump

	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvFrameStart:
		return "frame-start"
	case EvXCorrEdge:
		return "xcorr-edge"
	case EvEnergyHighEdge:
		return "energy-high-edge"
	case EvEnergyLowEdge:
		return "energy-low-edge"
	case EvTriggerArm:
		return "trigger-arm"
	case EvTriggerStage:
		return "trigger-stage"
	case EvTriggerAbandon:
		return "trigger-abandon"
	case EvTriggerFire:
		return "trigger-fire"
	case EvJamDelay:
		return "jam-delay"
	case EvJamInit:
		return "jam-init"
	case EvJamRFOn:
		return "jam-rf-on"
	case EvJamRFOff:
		return "jam-rf-off"
	case EvHoldoffRelease:
		return "holdoff-release"
	case EvRegWrite:
		return "reg-write"
	case EvHostPoll:
		return "host-poll"
	case EvAnomalyAlert:
		return "anomaly-alert"
	case EvFlightDump:
		return "flight-dump"
	default:
		return "event(?)"
	}
}

// Event is one journal entry: what happened, at which hardware-clock cycle,
// with a kind-specific argument, and — for sample-clocked datapath events —
// the detection engagement it belongs to.
type Event struct {
	// Cycle is the 100 MHz hardware clock cycle of the event.
	Cycle uint64
	// Kind identifies the event.
	Kind EventKind
	// Arg carries kind-specific data (register address/value, stage index).
	Arg uint64
	// Eng is the detection-engagement ID the event belongs to, assigned by
	// the core when a detector edge opens an engagement and carried through
	// trigger, jammer and holdoff events until the engagement closes with
	// EvHoldoffRelease. Zero means the event is outside any engagement
	// (frame markers, register writes, host polls).
	Eng uint32
}
