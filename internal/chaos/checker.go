package chaos

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/jammer"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/verdict"
)

// InvariantStatus is the verdict for one datapath invariant after a
// campaign.
type InvariantStatus uint8

const (
	// Held: the invariant was checked in full and holds.
	Held InvariantStatus = iota
	// Degraded: the faults weakened the invariant's observability (no
	// trigger fired, the journal wrapped, an injected delay widened a
	// bound) — the weakened form still holds but the full claim could not
	// be established.
	Degraded
	// Broken: a hard violation — a datapath bug, not a fault symptom.
	Broken
)

// String returns the report name of the status.
func (s InvariantStatus) String() string {
	switch s {
	case Held:
		return "held"
	case Degraded:
		return "degraded"
	case Broken:
		return "broken"
	default:
		return "status(?)"
	}
}

// MarshalJSON emits the symbolic name.
func (s InvariantStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Invariant is one checked property with its verdict.
type Invariant struct {
	// Name identifies the property (stable across runs, used in reports).
	Name string `json:"name"`
	// Status is the verdict.
	Status InvariantStatus `json:"status"`
	// Detail explains a non-held verdict (empty when held).
	Detail string `json:"detail,omitempty"`
}

// Checker holds everything a campaign observed and asserts the datapath
// invariant catalog over it. The campaign fills it; Check returns one
// Invariant per property, in fixed order.
type Checker struct {
	// Primary and Shadow are the block-mode and per-sample recorders.
	Primary *telemetry.Live
	Shadow  *telemetry.Live
	// PrimaryStats and ShadowStats are the cores' final counter snapshots.
	PrimaryStats core.Stats
	ShadowStats  core.Stats
	// TxMismatches counts transmit samples where the block path and the
	// per-sample path disagreed.
	TxMismatches uint64
	// XCorrMismatches counts samples where the popcount correlator and
	// xcorr.Reference disagreed on (metric, trigger).
	XCorrMismatches uint64
	// Committed is the effective register write sequence (post-fault).
	Committed []RegWrite
	// Bus is the primary core's register bus, for final readback.
	Bus *fpga.RegisterBus
	// Packets is the ground-truth packet window list for the verdict leg.
	Packets []verdict.Packet
	// DetectionKinds are the detector-edge kinds the trigger is fused on.
	DetectionKinds []telemetry.EventKind
}

// Check runs the full invariant catalog.
func (c *Checker) Check() []Invariant {
	return []Invariant{
		c.checkTinitBound(),
		c.checkEngagementLedger(),
		c.checkBlockParity(),
		c.checkXCorrBitExact(),
		c.checkCounterReconcile(),
		c.checkRegisterReadback(),
	}
}

// maxCommittedDelay returns the largest trigger-to-jam delay (in samples)
// ever committed to RegJammerDelay — injected bit-flips may legitimately
// program a surgical delay, which widens the Tinit bound.
func (c *Checker) maxCommittedDelay() uint64 {
	var max uint64
	for _, w := range c.Committed {
		if w.Addr == core.RegJammerDelay && uint64(w.Value) > max {
			max = uint64(w.Value)
		}
	}
	return max
}

// checkTinitBound asserts the paper's Tinit guarantee: every trigger-to-RF
// turnaround observed by the histogram stays within jammer.InitCycles
// (8 cycles, 80 ns), plus any surgical delay the committed register state
// legitimately programs (4 cycles per delay sample).
func (c *Checker) checkTinitBound() Invariant {
	inv := Invariant{Name: "tinit-bound"}
	h := c.Primary.Snapshot().Histogram(telemetry.HistTriggerToRF)
	if h.Count == 0 {
		inv.Status = Degraded
		inv.Detail = "no trigger-to-RF turnarounds observed"
		return inv
	}
	delay := c.maxCommittedDelay()
	bound := uint64(jammer.InitCycles) + delay*fpga.CyclesPerSample
	if h.Max > bound {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("max turnaround %d cycles exceeds bound %d (Tinit %d + delay %d samples)",
			h.Max, bound, jammer.InitCycles, delay)
		return inv
	}
	if delay > 0 {
		inv.Status = Degraded
		inv.Detail = fmt.Sprintf("bound widened to %d cycles by injected delay of %d samples (max observed %d)",
			bound, delay, h.Max)
	}
	return inv
}

// checkEngagementLedger asserts the engagement bookkeeping: IDs appear in
// strictly increasing contiguous order, each closes at most once, nothing is
// attributed to an engagement after its close, and cycle stamps never run
// backwards. When the journal ring wrapped, the surviving window is checked
// and the verdict degrades (the full-run claim is unobservable).
func (c *Checker) checkEngagementLedger() Invariant {
	inv := Invariant{Name: "engagement-ledger"}
	events := c.Primary.Events()
	dropped := c.Primary.Dropped()

	var lastCycle uint64
	var lastNew uint32
	closed := make(map[uint32]bool)
	for i, ev := range events {
		if ev.Cycle < lastCycle {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("journal cycle ran backwards at index %d (%d after %d)", i, ev.Cycle, lastCycle)
			return inv
		}
		lastCycle = ev.Cycle
		if ev.Eng == 0 {
			continue
		}
		if ev.Eng > lastNew {
			if dropped == 0 && ev.Eng != lastNew+1 {
				inv.Status = Broken
				inv.Detail = fmt.Sprintf("engagement IDs not contiguous: %d after %d", ev.Eng, lastNew)
				return inv
			}
			lastNew = ev.Eng
		} else if closed[ev.Eng] {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("event attributed to engagement %d after its close", ev.Eng)
			return inv
		}
		if ev.Kind == telemetry.EvHoldoffRelease {
			if closed[ev.Eng] {
				inv.Status = Broken
				inv.Detail = fmt.Sprintf("engagement %d closed twice", ev.Eng)
				return inv
			}
			closed[ev.Eng] = true
		}
	}
	if dropped == 0 {
		// Balance: with the whole run in view, every engagement except
		// possibly the last (which may still be open at capture) must have
		// closed.
		for _, e := range span.Build(events) {
			if e.ID != lastNew && !closed[e.ID] {
				inv.Status = Broken
				inv.Detail = fmt.Sprintf("engagement %d never closed", e.ID)
				return inv
			}
		}
	} else {
		inv.Status = Degraded
		inv.Detail = fmt.Sprintf("journal dropped %d events; checked surviving window only", dropped)
	}
	return inv
}

// checkBlockParity asserts the block/per-sample contract under fault: the
// primary (radio block path) and shadow (per-sample path) cores consumed the
// same faulted stream and identical committed register sequences, so their
// transmit output, counters, and telemetry journals must agree bit for bit.
func (c *Checker) checkBlockParity() Invariant {
	inv := Invariant{Name: "block-sample-parity"}
	if c.TxMismatches > 0 {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("%d transmit samples differ between block and per-sample paths", c.TxMismatches)
		return inv
	}
	if c.PrimaryStats != c.ShadowStats {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("counter divergence: block %+v vs per-sample %+v", c.PrimaryStats, c.ShadowStats)
		return inv
	}
	pe, se := c.Primary.Events(), c.Shadow.Events()
	if len(pe) != len(se) {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("journal length divergence: block %d vs per-sample %d events", len(pe), len(se))
		return inv
	}
	for i := range pe {
		if pe[i] != se[i] {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("journal divergence at index %d: block %+v vs per-sample %+v", i, pe[i], se[i])
			return inv
		}
	}
	return inv
}

// checkXCorrBitExact asserts the popcount kernel stayed bit-exact against
// the scalar reference on the faulted stream.
func (c *Checker) checkXCorrBitExact() Invariant {
	inv := Invariant{Name: "xcorr-bit-exact"}
	if c.XCorrMismatches > 0 {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("%d samples where popcount kernel and reference disagree", c.XCorrMismatches)
	}
	return inv
}

// checkCounterReconcile asserts the three observability planes agree: the
// atomic counter block, the all-time journal kind counts, and — when the
// journal survived intact — the verdict ledger built from packet windows.
func (c *Checker) checkCounterReconcile() Invariant {
	inv := Invariant{Name: "counter-ledger-reconcile"}
	pairs := []struct {
		name    string
		counter uint64
		kind    telemetry.EventKind
	}{
		{"xcorr detections", c.PrimaryStats.XCorrDetections, telemetry.EvXCorrEdge},
		{"energy-high detections", c.PrimaryStats.EnergyHighDetections, telemetry.EvEnergyHighEdge},
		{"energy-low detections", c.PrimaryStats.EnergyLowDetections, telemetry.EvEnergyLowEdge},
		{"jam triggers", c.PrimaryStats.JamTriggers, telemetry.EvTriggerFire},
		{"register writes", c.PrimaryStats.RegWrites, telemetry.EvRegWrite},
	}
	for _, p := range pairs {
		if got := c.Primary.EventCount(p.kind); got != p.counter {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("%s: counter %d vs journal %d", p.name, p.counter, got)
			return inv
		}
	}
	if got := uint64(len(c.Committed)); got != c.PrimaryStats.RegWrites {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("register writes: counter %d vs injector committed ledger %d", c.PrimaryStats.RegWrites, got)
		return inv
	}
	// Verdict-ledger leg: every configured-kind detector edge lands in the
	// ledger either as a detection (inside a packet window) or a false
	// alarm; their sum must equal the counter total. Needs the whole
	// journal, so it degrades under ring pressure.
	if c.Primary.Dropped() > 0 {
		inv.Status = Degraded
		inv.Detail = fmt.Sprintf("journal dropped %d events; verdict-ledger leg skipped", c.Primary.Dropped())
		return inv
	}
	res, err := verdict.Classify(c.Packets, span.Build(c.Primary.Events()),
		verdict.Options{Kinds: c.DetectionKinds})
	if err != nil {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("verdict classify: %v", err)
		return inv
	}
	var want uint64
	for _, k := range c.DetectionKinds {
		want += c.Primary.EventCount(k)
	}
	if got := res.Summary.DetectionEdges + res.Summary.FalseAlarmEdges; got != want {
		inv.Status = Broken
		inv.Detail = fmt.Sprintf("configured-kind edges: verdict ledger %d vs counters %d", got, want)
	}
	return inv
}

// checkRegisterReadback asserts the register file ends the campaign holding
// exactly the last committed value per address — dropped and delayed writes
// included, the file and the injector's committed ledger agree.
func (c *Checker) checkRegisterReadback() Invariant {
	inv := Invariant{Name: "register-readback"}
	model := make(map[uint8]uint32)
	for _, w := range c.Committed {
		model[w.Addr] = w.Value
	}
	addrs := make([]int, 0, len(model))
	for a := range model {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		got, err := c.Bus.Read(uint8(a))
		if err != nil {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("readback of register %d: %v", a, err)
			return inv
		}
		if want := model[uint8(a)]; got != want {
			inv.Status = Broken
			inv.Detail = fmt.Sprintf("register %d holds %#x, committed ledger says %#x", a, got, want)
			return inv
		}
	}
	return inv
}
