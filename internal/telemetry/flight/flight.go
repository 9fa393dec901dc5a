// Package flight is the datapath's black-box flight recorder. It rides an
// attached telemetry.Live recorder at near-zero cost — a baseline histogram
// snapshot taken at Arm time and a small ring of recent I/Q samples — and,
// when a trigger fires (SLO budget breach, chaos invariant degradation,
// anomaly alert, or an explicit call), captures a self-contained incident
// Dump: the tail of the event journal, histogram deltas since arming, the
// counter block, the register-write history visible in the journal, and the
// I/Q scope snapshot.
//
// Dumps are deterministic by construction: they contain no wall-clock
// state, every field is cycle-stamped, and serialization goes through
// encoding/json over fixed-order structs — so the same seed and trigger
// cycle produce byte-identical JSON, and a dump hash is a replay witness
// the same way the chaos ledger hash is.
package flight

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Trigger identifies what fired the flight recorder.
type Trigger uint8

// The trigger taxonomy. Values are stable: they are journaled in
// EvFlightDump's Arg and serialized by name in dumps.
const (
	// TriggerManual is an explicit API call (jamlab's -flight-out path).
	TriggerManual Trigger = iota
	// TriggerSLOBreach is a violated budget from internal/telemetry/slo.
	TriggerSLOBreach
	// TriggerChaosInvariant is a degraded or broken invariant from
	// internal/chaos.
	TriggerChaosInvariant
	// TriggerAnomaly is a streaming-detector alert from
	// internal/telemetry/anomaly.
	TriggerAnomaly

	numTriggers
)

// String returns the stable dump name of the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerManual:
		return "manual"
	case TriggerSLOBreach:
		return "slo-breach"
	case TriggerChaosInvariant:
		return "chaos-invariant"
	case TriggerAnomaly:
		return "anomaly"
	default:
		return "trigger(?)"
	}
}

// MarshalJSON emits the symbolic name.
func (t Trigger) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// Options tunes the recorder.
type Options struct {
	// EventTail bounds how many journal events (newest last) a dump
	// carries. Default 512.
	EventTail int
	// IQDepth bounds the I/Q scope ring. Default 256.
	IQDepth int
	// Seed labels the dump with the run's master seed, making "same seed ⇒
	// same dump" checkable from the artifact alone.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.EventTail <= 0 {
		o.EventTail = 512
	}
	if o.IQDepth <= 0 {
		o.IQDepth = 256
	}
	return o
}

// Recorder is the flight recorder. Methods are not safe for concurrent use
// on their own; a single rollup/datapath goroutine owns it (the attached
// Live recorder has its own lock).
type Recorder struct {
	live *telemetry.Live
	opts Options

	baseline telemetry.Snapshot
	armed    bool

	iq     []complex128 // ring storage
	iqNext int
	iqFull bool
}

// New returns a flight recorder riding the given live telemetry recorder.
func New(live *telemetry.Live, opts Options) *Recorder {
	o := opts.withDefaults()
	return &Recorder{live: live, opts: o, iq: make([]complex128, o.IQDepth)}
}

// Arm captures the histogram baseline that dump deltas are computed
// against. Triggers fire whether or not the recorder is armed; arming only
// anchors the deltas (an unarmed dump reports absolute histogram state).
func (r *Recorder) Arm() {
	r.baseline = r.live.Snapshot()
	r.armed = true
}

// RecordIQ taps a block of received samples into the scope ring, keeping
// the most recent IQDepth samples.
func (r *Recorder) RecordIQ(buf []complex128) {
	if len(buf) > len(r.iq) {
		buf = buf[len(buf)-len(r.iq):]
	}
	for _, s := range buf {
		r.iq[r.iqNext] = s
		r.iqNext++
		if r.iqNext == len(r.iq) {
			r.iqNext, r.iqFull = 0, true
		}
	}
}

// iqSnapshot returns the scope ring oldest-first.
func (r *Recorder) iqSnapshot() [][2]float64 {
	n := r.iqNext
	if r.iqFull {
		n = len(r.iq)
	}
	out := make([][2]float64, 0, n)
	emit := func(s complex128) {
		out = append(out, [2]float64{real(s), imag(s)})
	}
	if r.iqFull {
		for _, s := range r.iq[r.iqNext:] {
			emit(s)
		}
	}
	for _, s := range r.iq[:r.iqNext] {
		emit(s)
	}
	return out
}

// DumpEvent is one journal event in a dump, with the kind spelled out.
type DumpEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Arg   uint64 `json:"arg,omitempty"`
	Eng   uint32 `json:"eng,omitempty"`
}

// HistDelta is one histogram's movement since the recorder was armed: the
// observation count and sum are deltas, the order statistics are the
// current values (quantile deltas are not meaningful).
type HistDelta struct {
	Name       string `json:"name"`
	CountDelta uint64 `json:"count_delta"`
	SumDelta   uint64 `json:"sum_delta"`
	P50        uint64 `json:"p50"`
	P99        uint64 `json:"p99"`
	Max        uint64 `json:"max"`
}

// RegWrite is one committed register write visible in the dump's journal
// window.
type RegWrite struct {
	Cycle uint64 `json:"cycle"`
	Addr  uint32 `json:"addr"`
	Value uint32 `json:"value"`
}

// Dump is one self-contained incident artifact. Field order is the
// serialization order; keep it stable — incident hashes are compared across
// runs and commits.
type Dump struct {
	// Version is the dump schema version.
	Version int `json:"version"`
	// Trigger and Detail say what fired and why; Cycle is the hardware
	// clock at capture.
	Trigger Trigger `json:"trigger"`
	Detail  string  `json:"detail,omitempty"`
	Cycle   uint64  `json:"cycle"`
	// Seed is the run's master seed (Options.Seed).
	Seed int64 `json:"seed"`
	// Armed reports whether histogram deltas are anchored to an Arm call.
	Armed bool `json:"armed"`
	// Counters is the counter block at capture.
	Counters telemetry.CounterSnapshot `json:"counters"`
	// Engagements counts completed engagements at capture; Dropped is the
	// journal's all-time overwrite count (non-zero means Events is not the
	// whole story even within the tail window).
	Engagements uint64 `json:"engagements"`
	Dropped     uint64 `json:"dropped"`
	// Histograms is the per-histogram movement since arming.
	Histograms []HistDelta `json:"histograms"`
	// Events is the journal tail, oldest first, at most EventTail entries.
	// EventsTruncated reports how many surviving journal events fell
	// outside the tail window.
	Events          []DumpEvent `json:"events"`
	EventsTruncated int         `json:"events_truncated,omitempty"`
	// RegWrites is the register-write history visible in the journal tail.
	RegWrites []RegWrite `json:"reg_writes,omitempty"`
	// IQ is the scope snapshot: the most recent received samples as
	// (I, Q) pairs, oldest first.
	IQ [][2]float64 `json:"iq,omitempty"`
}

// DumpVersion is the current dump schema version.
const DumpVersion = 1

// Trigger captures an incident dump and journals an EvFlightDump marker
// (stamped after capture, so the dump itself never contains its own
// marker). The caller owns the returned dump; the recorder keeps no copy.
func (r *Recorder) Trigger(tr Trigger, cycle uint64, detail string) *Dump {
	snap := r.live.Snapshot()
	d := &Dump{
		Version:     DumpVersion,
		Trigger:     tr,
		Detail:      detail,
		Cycle:       cycle,
		Seed:        r.opts.Seed,
		Armed:       r.armed,
		Counters:    snap.Counters,
		Engagements: snap.Engagements,
		Dropped:     snap.Dropped,
		IQ:          r.iqSnapshot(),
	}
	for _, h := range snap.Histograms {
		delta := HistDelta{
			Name:       h.Name,
			CountDelta: h.Count,
			SumDelta:   h.Sum,
			P50:        h.P50,
			P99:        h.P99,
			Max:        h.Max,
		}
		if r.armed {
			b := r.baseline.Histogram(h.Name)
			delta.CountDelta -= b.Count
			delta.SumDelta -= b.Sum
		}
		d.Histograms = append(d.Histograms, delta)
	}
	events := r.live.Events()
	if n := len(events) - r.opts.EventTail; n > 0 {
		d.EventsTruncated = n
		events = events[n:]
	}
	d.Events = make([]DumpEvent, len(events))
	for i, ev := range events {
		d.Events[i] = DumpEvent{
			Cycle: ev.Cycle, Kind: ev.Kind.String(), Arg: ev.Arg, Eng: ev.Eng,
		}
		if ev.Kind == telemetry.EvRegWrite {
			d.RegWrites = append(d.RegWrites, RegWrite{
				Cycle: ev.Cycle,
				Addr:  uint32(ev.Arg >> 32),
				Value: uint32(ev.Arg & 0xFFFFFFFF),
			})
		}
	}
	r.live.Event(telemetry.EvFlightDump, cycle, uint64(tr), 0)
	return d
}

// Marshal serializes the dump as deterministic JSON with a trailing
// newline — the byte stream whose hash is the incident's identity.
func (d *Dump) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the dump's canonical serialization.
func (d *Dump) WriteJSON(w io.Writer) error {
	b, err := d.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Hash returns the FNV-1a hash of the dump's canonical serialization — the
// replay witness asserted by the determinism gates.
func (d *Dump) Hash() (string, error) {
	b, err := d.Marshal()
	if err != nil {
		return "", err
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return fmt.Sprintf("%016x", h), nil
}
