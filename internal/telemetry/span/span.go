// Package span reconstructs detection engagements from the telemetry
// journal as causal span trees. The core stamps every sample-clocked event
// with an engagement ID (see telemetry.Event.Eng); this package groups a
// journal by that ID and derives, for each engagement, the causal chain the
// paper's timing analysis is built on:
//
//	engagement
//	├── detect      first detector edge → trigger decision
//	├── turnaround  trigger decision → jam TX on
//	│   ├── jam-delay  surgical delay phase (when configured)
//	│   └── duc-fill   DUC pipeline fill (the 80 ns Tinit)
//	├── burst       jam TX on → jam TX off
//	└── holdoff     jam TX off → holdoff release
//
// All stamps are 100 MHz hardware-clock cycles taken by the datapath itself,
// so span durations are exact cycle counts, not wall-clock estimates.
package span

import (
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Span is one node of an engagement's causal tree: a named half-open
// interval [Start, End] in hardware-clock cycles with nested children.
type Span struct {
	Name     string
	Start    uint64
	End      uint64
	Children []Span
}

// Cycles returns the span duration in clock cycles.
func (s Span) Cycles() uint64 { return s.End - s.Start }

// Engagement is one reconstructed detection engagement: every journal event
// carrying the same non-zero engagement ID, plus the causal stamps derived
// from them. Zero-valued stamps guarded by their Has* flags.
type Engagement struct {
	// ID is the core-assigned engagement ID (monotonic within a run).
	ID uint32
	// Events holds the engagement's journal events in journal order.
	Events []telemetry.Event

	// FirstEdge is the cycle of the detector edge that opened the
	// engagement.
	FirstEdge uint64
	// Fire is the trigger-decision cycle (HasFire false when the edges
	// never completed a trigger — a sequence abandon or sub-threshold
	// activity).
	Fire    uint64
	HasFire bool
	// DelayStart and InitStart mark the jammer's surgical-delay and
	// DUC-fill phase entries.
	DelayStart uint64
	HasDelay   bool
	InitStart  uint64
	HasInit    bool
	// RFOn and RFOff bound the jamming burst at RF.
	RFOn  uint64
	HasRF bool
	RFOff uint64
	// Release is the holdoff-release cycle; Complete reports whether the
	// engagement closed inside the journal (false for an engagement still
	// open at capture time or whose tail fell off the ring).
	Release  uint64
	Complete bool
}

// last returns the cycle of the engagement's last recorded event.
func (e *Engagement) last() uint64 {
	if n := len(e.Events); n > 0 {
		return e.Events[n-1].Cycle
	}
	return e.FirstEdge
}

// End returns the engagement's closing cycle: the holdoff release when
// complete, otherwise the last event seen.
func (e *Engagement) End() uint64 {
	if e.Complete {
		return e.Release
	}
	return e.last()
}

// Tree builds the engagement's causal span tree. Phases that did not occur
// (no trigger, no burst) are simply absent, so a noise engagement renders as
// a bare root with a holdoff child.
func (e *Engagement) Tree() Span {
	root := Span{
		Name:  fmt.Sprintf("engagement-%d", e.ID),
		Start: e.FirstEdge,
		End:   e.End(),
	}
	if e.HasFire {
		root.Children = append(root.Children, Span{
			Name: "detect", Start: e.FirstEdge, End: e.Fire,
		})
		if e.HasRF {
			turn := Span{Name: "turnaround", Start: e.Fire, End: e.RFOn}
			if e.HasDelay {
				end := e.RFOn
				if e.HasInit {
					end = e.InitStart
				}
				turn.Children = append(turn.Children, Span{
					Name: "jam-delay", Start: e.DelayStart, End: end,
				})
			}
			if e.HasInit {
				turn.Children = append(turn.Children, Span{
					Name: "duc-fill", Start: e.InitStart, End: e.RFOn,
				})
			}
			root.Children = append(root.Children, turn)
		}
	}
	if e.HasRF && e.RFOff >= e.RFOn {
		root.Children = append(root.Children, Span{
			Name: "burst", Start: e.RFOn, End: e.RFOff,
		})
		if e.Complete {
			root.Children = append(root.Children, Span{
				Name: "holdoff", Start: e.RFOff, End: e.Release,
			})
		}
	} else if e.Complete {
		// No burst: the holdoff ran from the opening edge.
		root.Children = append(root.Children, Span{
			Name: "holdoff", Start: e.FirstEdge, End: e.Release,
		})
	}
	return root
}

// Build groups a journal by engagement ID and derives the causal stamps for
// each. Engagements are returned in order of first appearance (which is ID
// order for a single-run journal). Events with Eng == 0 (frame markers,
// register writes, host polls) are ignored.
func Build(events []telemetry.Event) []Engagement {
	var out []Engagement
	idx := map[uint32]int{}
	for _, ev := range events {
		if ev.Eng == 0 {
			continue
		}
		i, ok := idx[ev.Eng]
		if !ok {
			i = len(out)
			idx[ev.Eng] = i
			out = append(out, Engagement{ID: ev.Eng, FirstEdge: ev.Cycle})
		}
		e := &out[i]
		e.Events = append(e.Events, ev)
		switch ev.Kind {
		case telemetry.EvTriggerFire:
			if !e.HasFire {
				e.Fire, e.HasFire = ev.Cycle, true
			}
		case telemetry.EvJamDelay:
			if !e.HasDelay {
				e.DelayStart, e.HasDelay = ev.Cycle, true
			}
		case telemetry.EvJamInit:
			if !e.HasInit {
				e.InitStart, e.HasInit = ev.Cycle, true
			}
		case telemetry.EvJamRFOn:
			if !e.HasRF {
				e.RFOn, e.HasRF = ev.Cycle, true
			}
		case telemetry.EvJamRFOff:
			e.RFOff = ev.Cycle
		case telemetry.EvHoldoffRelease:
			e.Release, e.Complete = ev.Cycle, true
		}
	}
	return out
}

// WriteTree renders one engagement's span tree as an indented text listing
// with cycle and microsecond durations — the human-readable companion to the
// Chrome-trace export.
func WriteTree(w io.Writer, e *Engagement) error {
	var walk func(s Span, depth int) error
	walk = func(s Span, depth int) error {
		for i := 0; i < depth; i++ {
			if _, err := io.WriteString(w, "  "); err != nil {
				return err
			}
		}
		d := s.Cycles()
		if _, err := fmt.Fprintf(w, "%s @%d +%d cyc (%v)\n",
			s.Name, s.Start, d, telemetry.CyclesToDuration(d)); err != nil {
			return err
		}
		for _, c := range s.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e.Tree(), 0)
}
