package telemetry

import (
	"sync"
	"time"
)

// cyclePeriod converts hardware clock cycles to wall time (100 MHz clock,
// 10 ns per cycle; kept local so the package stays dependency-free).
const cyclePeriod = 10 * time.Nanosecond

// CyclesToDuration converts a cycle count to simulated wall time.
func CyclesToDuration(cycles uint64) time.Duration {
	return time.Duration(cycles) * cyclePeriod
}

// leadWindowCycles bounds how far apart an xcorr edge and an energy edge may
// be and still be attributed to the same frame for the lead-time histogram
// (1024 samples ≈ 41 µs).
const leadWindowCycles = 4096

// Live is the telemetry recorder: it journals every event and maintains the
// latency histograms derived from event pairs. All methods are safe for
// concurrent use (one mutex guards journal, histograms and pairing state —
// events are edge-rate, not sample-rate, so the lock is cold).
type Live struct {
	counters *Counters // bound by the core on attach; may be nil

	mu      sync.Mutex
	journal *Journal

	// reaction: frame-start marker → first jamming sample at RF. This is
	// the end-to-end reaction latency of Fig. 5 (Tdet + Tinit).
	reaction Histogram
	// detectToRF: last detector edge → RF on (collapses to Tinit for
	// single-stage triggers; shows sequence cost for multi-stage).
	detectToRF Histogram
	// triggerToRF: trigger fire → RF on (the paper's 80 ns Tinit).
	triggerToRF Histogram
	// burst: RF on → RF off jamming burst durations.
	burst Histogram
	// lead: xcorr edge → energy-high edge on the same frame (the xcorr
	// detector sees the preamble before the energy window fills).
	lead Histogram

	// Pairing state.
	frameStart   uint64
	hasFrame     bool
	lastDetect   uint64
	hasDetect    bool
	lastXCorr    uint64
	hasXCorr     bool
	lastFire     uint64
	hasFire      bool
	jamOn        uint64
	jamActive    bool
	eventsByKind [numEventKinds]uint64
}

// NewLive returns a live recorder with a journal of the given depth
// (DefaultJournalDepth when depth <= 0).
func NewLive(depth int) *Live {
	return &Live{journal: NewJournal(depth)}
}

// BindCounters attaches the datapath counter block so the exposition
// endpoint reads the same memory as core.Stats. Called by the core when the
// recorder is installed.
func (l *Live) BindCounters(c *Counters) {
	l.mu.Lock()
	l.counters = c
	l.mu.Unlock()
}

// Event records one datapath event. It allocates only while the journal's
// storage grows toward its depth (see Journal); the histograms are fixed
// arrays.
func (l *Live) Event(kind EventKind, cycle uint64, arg uint64, eng uint32) {
	l.mu.Lock()
	l.journal.Append(Event{Cycle: cycle, Kind: kind, Arg: arg, Eng: eng})
	if kind < numEventKinds {
		l.eventsByKind[kind]++
	}
	switch kind {
	case EvFrameStart:
		l.frameStart, l.hasFrame = cycle, true
	case EvXCorrEdge:
		l.lastDetect, l.hasDetect = cycle, true
		l.lastXCorr, l.hasXCorr = cycle, true
	case EvEnergyHighEdge:
		l.lastDetect, l.hasDetect = cycle, true
		if l.hasXCorr && cycle >= l.lastXCorr && cycle-l.lastXCorr <= leadWindowCycles {
			l.lead.Observe(cycle - l.lastXCorr)
			l.hasXCorr = false
		}
	case EvEnergyLowEdge:
		l.lastDetect, l.hasDetect = cycle, true
	case EvTriggerFire:
		l.lastFire, l.hasFire = cycle, true
	case EvJamRFOn:
		l.jamOn, l.jamActive = cycle, true
		if l.hasFire && cycle >= l.lastFire {
			l.triggerToRF.Observe(cycle - l.lastFire)
			l.hasFire = false
		}
		if l.hasDetect && cycle >= l.lastDetect {
			l.detectToRF.Observe(cycle - l.lastDetect)
			l.hasDetect = false
		}
		if l.hasFrame && cycle >= l.frameStart {
			l.reaction.Observe(cycle - l.frameStart)
			l.hasFrame = false
		}
	case EvJamRFOff:
		if l.jamActive && cycle >= l.jamOn {
			l.burst.Observe(cycle - l.jamOn)
			l.jamActive = false
		}
	}
	l.mu.Unlock()
}

// Events returns a chronological copy of the journal.
func (l *Live) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journal.Events()
}

// EventCount returns how many events of the given kind have been recorded
// (including any since overwritten in the ring).
func (l *Live) EventCount(kind EventKind) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if kind >= numEventKinds {
		return 0
	}
	return l.eventsByKind[kind]
}

// Dropped returns how many journal events have been lost to ring-buffer
// wrap-around so far. A non-zero value means Events() no longer holds the
// whole run and any artifact derived from the journal (span trees, verdict
// ledgers) is incomplete.
func (l *Live) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journal.Dropped()
}

// HistogramSnapshot is a point-in-time copy of one latency histogram with
// its headline statistics, in hardware clock cycles.
type HistogramSnapshot struct {
	Name  string
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
	P50   uint64
	P90   uint64
	P99   uint64
	// Buckets holds (inclusive upper bound, count) pairs for every
	// non-empty bucket, ascending.
	Buckets [][2]uint64
}

// P50Duration returns the median as simulated wall time.
func (s HistogramSnapshot) P50Duration() time.Duration { return CyclesToDuration(s.P50) }

// P99Duration returns the 99th percentile as simulated wall time.
func (s HistogramSnapshot) P99Duration() time.Duration { return CyclesToDuration(s.P99) }

// Histogram names used in snapshots and stream rollups.
const (
	HistReaction    = "reaction_cycles"
	HistDetectToRF  = "detect_to_rf_cycles"
	HistTriggerToRF = "trigger_to_rf_cycles"
	HistJamBurst    = "jam_burst_cycles"
	HistXCorrLead   = "xcorr_energy_lead_cycles"
)

// Snapshot is a point-in-time copy of everything the recorder holds.
type Snapshot struct {
	Counters   CounterSnapshot
	Histograms []HistogramSnapshot
	Events     int
	Dropped    uint64
	// Engagements counts completed detection engagements (holdoff-release
	// events): the unit the span and verdict layers reason about.
	Engagements uint64
}

// Histogram returns the named histogram from the snapshot (zero value when
// absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramSnapshot{Name: name}
}

// Snapshot captures the recorder state.
func (l *Live) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{
		Events:      l.journal.Len(),
		Dropped:     l.journal.Dropped(),
		Engagements: l.eventsByKind[EvHoldoffRelease],
		Histograms: []HistogramSnapshot{
			l.reaction.Snapshot(HistReaction),
			l.detectToRF.Snapshot(HistDetectToRF),
			l.triggerToRF.Snapshot(HistTriggerToRF),
			l.burst.Snapshot(HistJamBurst),
			l.lead.Snapshot(HistXCorrLead),
		},
	}
	if l.counters != nil {
		s.Counters = l.counters.Snapshot()
	}
	return s
}

// Reset clears the journal, histograms and pairing state (bound counters
// are left alone; reset those through the core).
func (l *Live) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal.Reset()
	l.reaction.Reset()
	l.detectToRF.Reset()
	l.triggerToRF.Reset()
	l.burst.Reset()
	l.lead.Reset()
	l.hasFrame, l.hasDetect, l.hasXCorr, l.hasFire, l.jamActive = false, false, false, false, false
	l.eventsByKind = [numEventKinds]uint64{}
}
