package fleet

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics exposition of a fleet snapshot with a bounded `cell` label
// cardinality: fleet-wide totals are unlabeled, the labelBudget worst cells
// (by reaction p99, ties by name) keep their own cell="..." series, and
// every remaining cell is collapsed into one cell="other" series so a
// 10,000-cell fleet cannot blow up the scrape or the TSDB behind it.

const (
	metricPrefix = "reactivejam_"
	// OverflowCell is the label value the out-of-budget cells collapse
	// into.
	OverflowCell = "other"
)

// cellSeries is the flattened per-cell figure set the exposition emits.
type cellSeries struct {
	label       string
	samples     uint64
	jamTriggers uint64
	dropped     uint64
	engagements uint64
	frames      uint64
	jammed      uint64
	reactionP99 uint64
	tinitP99    uint64
	sloPass     int // passing cells in the series (1 per healthy cell)
	sloCells    int // cells folded into the series
}

func (c *CellSnapshot) series() cellSeries {
	s := cellSeries{
		label:       c.Cell,
		samples:     c.Counters.Samples,
		jamTriggers: c.Counters.JamTriggers,
		dropped:     c.Dropped,
		engagements: c.Engagements,
		frames:      c.Frames,
		jammed:      c.Jammed,
		reactionP99: c.Reaction.P99,
		tinitP99:    c.TriggerToRF.P99,
		sloCells:    1,
	}
	if c.SLO.Pass {
		s.sloPass = 1
	}
	return s
}

// fold collapses another cell into an overflow series: counters add, the
// quantiles keep the worst (max) value — the conservative choice for an
// aggregate bucket that exists to flag, not hide, unhealthy cells.
func (s *cellSeries) fold(c *CellSnapshot) {
	s.samples += c.Counters.Samples
	s.jamTriggers += c.Counters.JamTriggers
	s.dropped += c.Dropped
	s.engagements += c.Engagements
	s.frames += c.Frames
	s.jammed += c.Jammed
	if c.Reaction.P99 > s.reactionP99 {
		s.reactionP99 = c.Reaction.P99
	}
	if c.TriggerToRF.P99 > s.tinitP99 {
		s.tinitP99 = c.TriggerToRF.P99
	}
	if c.SLO.Pass {
		s.sloPass++
	}
	s.sloCells++
}

// labelled splits the snapshot's cells into up to labelBudget individually
// labelled series (worst reaction p99 first — the cells an operator wants
// to see by name) plus one overflow series holding the rest (nil when
// everything fit).
func (s *Snapshot) labelled(labelBudget int) ([]cellSeries, *cellSeries) {
	order := topKAll(s.Cells)
	var out []cellSeries
	var overflow *cellSeries
	for _, name := range order {
		c := s.CellByName(name)
		if len(out) < labelBudget {
			out = append(out, c.series())
			continue
		}
		if overflow == nil {
			o := c.series()
			o.label = OverflowCell
			overflow = &o
			continue
		}
		overflow.fold(c)
	}
	return out, overflow
}

// topKAll orders every cell worst-reaction-p99 first, ties by name.
func topKAll(cells []CellSnapshot) []string {
	type kv struct {
		name string
		v    uint64
	}
	ks := make([]kv, len(cells))
	for i := range cells {
		ks[i] = kv{cells[i].Cell, cells[i].Reaction.P99}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].v != ks[j].v {
			return ks[i].v > ks[j].v
		}
		return ks[i].name < ks[j].name
	})
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.name
	}
	return out
}

// WriteOpenMetrics renders the snapshot in OpenMetrics text format within
// the given cell-label budget, terminated by the `# EOF` marker.
func (s *Snapshot) WriteOpenMetrics(w io.Writer, labelBudget int) error {
	bw := bufio.NewWriter(w)
	gauge := func(name string, v float64) {
		fmt.Fprintf(bw, "# TYPE %s%s gauge\n%s%s %g\n", metricPrefix, name, metricPrefix, name, v)
	}
	gauge("fleet_cells", float64(len(s.Cells)))
	gauge("fleet_slo_failing_cells", float64(s.SLOFailing))
	gauge("fleet_fn_rate", s.Total.FNRate)
	gauge("fleet_reaction_p99_cycles", float64(s.Total.Reaction.P99))
	gauge("fleet_trigger_to_rf_p99_cycles", float64(s.Total.TriggerToRF.P99))

	counter := func(name string, v uint64) {
		fmt.Fprintf(bw, "# TYPE %s%s counter\n%s%s %d\n", metricPrefix, name, metricPrefix, name, v)
	}
	counter("fleet_samples_total", s.Total.Counters.Samples)
	counter("fleet_jam_triggers_total", s.Total.Counters.JamTriggers)
	counter("fleet_engagements_total", s.Total.Engagements)
	counter("fleet_journal_dropped_total", s.Total.Dropped)
	counter("fleet_frames_total", s.Total.Frames)
	counter("fleet_jammed_frames_total", s.Total.Jammed)
	counter("stream_dropped_clients_total", s.StreamDroppedClients)

	labelled, overflow := s.labelled(labelBudget)
	series := func(name, typ string, value func(*cellSeries) string) {
		fmt.Fprintf(bw, "# TYPE %s%s %s\n", metricPrefix, name, typ)
		for i := range labelled {
			fmt.Fprintf(bw, "%s%s{cell=%q} %s\n", metricPrefix, name, labelled[i].label, value(&labelled[i]))
		}
		if overflow != nil {
			fmt.Fprintf(bw, "%s%s{cell=%q} %s\n", metricPrefix, name, overflow.label, value(overflow))
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	series("cell_samples_total", "counter", func(c *cellSeries) string { return u(c.samples) })
	series("cell_jam_triggers_total", "counter", func(c *cellSeries) string { return u(c.jamTriggers) })
	series("cell_engagements_total", "counter", func(c *cellSeries) string { return u(c.engagements) })
	series("cell_journal_dropped_total", "counter", func(c *cellSeries) string { return u(c.dropped) })
	series("cell_frames_total", "counter", func(c *cellSeries) string { return u(c.frames) })
	series("cell_jammed_frames_total", "counter", func(c *cellSeries) string { return u(c.jammed) })
	series("cell_reaction_p99_cycles", "gauge", func(c *cellSeries) string { return u(c.reactionP99) })
	series("cell_trigger_to_rf_p99_cycles", "gauge", func(c *cellSeries) string { return u(c.tinitP99) })
	series("cell_slo_passing_cells", "gauge", func(c *cellSeries) string { return strconv.Itoa(c.sloPass) })
	series("cell_slo_cells", "gauge", func(c *cellSeries) string { return strconv.Itoa(c.sloCells) })

	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

// Handler returns an http.Handler serving the fleet exposition (mount it
// at /metrics). Each scrape takes a fresh snapshot, so the surface is
// always current.
func (a *Aggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = a.Snapshot().WriteOpenMetrics(w, a.opts.LabelBudget)
	})
}

// LintMetrics enforces the exposition contract on a scrape: every sample
// line's metric must have been declared by a preceding # TYPE, every value
// must parse, the scrape must end with # EOF, and the number of distinct
// cell label values (the overflow bucket aside) must stay within the
// cardinality budget. It returns the number of distinct labelled cells.
func LintMetrics(r io.Reader, labelBudget int) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	declared := map[string]bool{}
	cells := map[string]bool{}
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawEOF {
			return 0, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 3 && f[1] == "TYPE" {
				declared[f[2]] = true
			}
			continue
		}
		name, rest, ok := cutMetricLine(line)
		if !ok {
			return 0, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if !declared[name] {
			return 0, fmt.Errorf("line %d: %s has no preceding # TYPE", lineNo, name)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			return 0, fmt.Errorf("line %d: bad value in %q: %v", lineNo, line, err)
		}
		if cell, ok := cellLabel(line); ok && cell != OverflowCell {
			cells[cell] = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !sawEOF {
		return 0, fmt.Errorf("scrape does not end with # EOF")
	}
	if len(cells) > labelBudget {
		return len(cells), fmt.Errorf("cell label cardinality %d exceeds budget %d", len(cells), labelBudget)
	}
	return len(cells), nil
}

// cutMetricLine splits a sample line into its metric name (label block
// stripped) and the value part.
func cutMetricLine(line string) (name, value string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		return line[:i], line[j+1:], true
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// cellLabel extracts the cell="..." label value from a sample line.
func cellLabel(line string) (string, bool) {
	const key = `cell="`
	i := strings.Index(line, key)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
