package chaos

import (
	"encoding/json"
	"fmt"
	"io"
)

// Classes returns the fault-class names of the standard sweep, in report
// order. "control" (severity 0, no faults armed) is always prepended by
// RunSweep itself.
func Classes() []string {
	return []string{"regbus", "stream", "timing", "combined"}
}

// timingDepth maps sweep severity to journal depth: severity 1 fits the
// whole run, higher severities force the ring to wrap.
func timingDepth(severity int) int {
	switch {
	case severity <= 1:
		return 4096
	case severity == 2:
		return 1024
	default:
		return 256
	}
}

// PlanFor builds the standard sweep plan for one fault class × severity
// cell. Severity scales the per-opportunity probabilities linearly and the
// clock ramp quadratically; severity 0 of any class is the control plan.
func PlanFor(class string, severity int, seed int64) (Plan, error) {
	if severity < 0 {
		return Plan{}, fmt.Errorf("chaos: negative severity %d", severity)
	}
	s := float64(severity)
	regbus := Plan{
		RegDropProb:  0.08 * s,
		RegFlipProb:  0.08 * s,
		RegDelayProb: 0.05 * s,
	}
	stream := Plan{
		StreamDropProb: 0.20 * s,
		StreamDupProb:  0.15 * s,
		StreamSatProb:  0.20 * s,
		StreamDCProb:   0.15 * s,
	}
	timing := Plan{
		ClockOffsetPPM: 100 * s * s,
	}
	if severity > 0 {
		timing.JournalDepth = timingDepth(severity)
	}

	var p Plan
	switch class {
	case "control":
		p = Plan{}
	case "regbus":
		p = regbus
	case "stream":
		p = stream
	case "timing":
		p = timing
	case "combined":
		p = regbus
		p.StreamDropProb = stream.StreamDropProb
		p.StreamDupProb = stream.StreamDupProb
		p.StreamSatProb = stream.StreamSatProb
		p.StreamDCProb = stream.StreamDCProb
		p.ClockOffsetPPM = timing.ClockOffsetPPM
		p.JournalDepth = timing.JournalDepth
	default:
		return Plan{}, fmt.Errorf("chaos: unknown fault class %q", class)
	}
	p.Seed = seed
	return p, nil
}

// SweepConfig describes a full campaign sweep.
type SweepConfig struct {
	// Seed is the master seed; each cell derives its own plan seed from it.
	Seed int64
	// Frames per campaign (default 12).
	Frames int
}

// severities are the levels every fault class of the sweep runs at.
var severities = []int{1, 2, 3}

// RunSweep runs the control campaign followed by every fault class at every
// severity, returning the results in deterministic report order.
func RunSweep(cfg SweepConfig) ([]*Result, error) {
	type cell struct {
		class    string
		severity int
	}
	cells := []cell{{"control", 0}}
	for _, class := range Classes() {
		for _, s := range severities {
			cells = append(cells, cell{class, s})
		}
	}
	results := make([]*Result, 0, len(cells))
	for i, c := range cells {
		plan, err := PlanFor(c.class, c.severity, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		res, err := Run(Config{Plan: plan, Frames: cfg.Frames})
		if err != nil {
			return nil, fmt.Errorf("chaos: campaign %s/%d: %w", c.class, c.severity, err)
		}
		res.Class = c.class
		res.Severity = c.severity
		results = append(results, res)
	}
	return results, nil
}

// WriteReport writes the sweep as JSONL, one campaign result per line. The
// output is a pure function of the sweep's plans — running the same seed
// twice produces byte-identical reports, which is the replay gate the
// acceptance test diffs.
func WriteReport(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
