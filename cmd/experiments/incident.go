package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/slo"
)

// The incident drill (E16): a fully seeded energy-triggered run with the
// flight recorder armed, evaluated against a deliberately unattainable
// reaction budget so the SLO breach fires a dump. The run is executed twice
// and the dumps must be byte-identical — the drill doubles as an end-to-end
// determinism check on the whole breach→dump path.

const (
	incidentFloor  = 1e-6 // -60 dBFS noise floor, as in the detection experiments
	incidentFrames = 24
	incidentSeed   = 7
)

// incidentRun executes one seeded run and returns the breach dump.
func incidentRun(quiet bool) (*flight.Dump, error) {
	r := radio.New()
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	r.Core().SetRecorder(live)
	h := host.New(r.Core())
	if err := h.Arm(host.Detector{EnergyThresholdDB: host.EnergyRiseDB}); err != nil {
		return nil, err
	}
	if _, err := h.ProgramJammer(host.Personality{
		Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1,
	}); err != nil {
		return nil, err
	}
	fr := flight.New(live, incidentSeed)
	fr.Arm()
	r.Start()

	// Stimulus: tiled WiFi short preamble at 12 dB over the floor, quiet lead
	// re-arming the detector and a tail long enough for each burst to finish.
	tpl := host.WiFiShortTemplate()
	frame := make(dsp.Samples, 0, 4*len(tpl))
	for i := 0; i < 4; i++ {
		frame = append(frame, tpl...)
	}
	noise := dsp.NewNoiseSource(incidentFloor, incidentSeed+77)
	const lead, tail = 512, 1536
	var buf dsp.Samples
	for f := 0; f < incidentFrames; f++ {
		buf = noise.AddTo(dsp.Frame(buf, frame, lead, tail, 12, incidentFloor))
		r.MarkFrame(lead)
		fr.RecordIQ(buf)
		if _, err := r.Process(buf); err != nil {
			return nil, err
		}
	}

	snap := live.Snapshot()
	hr := snap.Histogram(telemetry.HistReaction)
	if hr.Count == 0 {
		return nil, fmt.Errorf("incident: no reactions recorded — stimulus never triggered")
	}
	metrics := map[string]float64{
		slo.MetricReactionP99:    float64(hr.P99),
		slo.MetricJournalDropped: float64(snap.Dropped),
		"reaction_p50_cycles":    float64(hr.P50),
		"jam_triggers":           float64(snap.Counters.JamTriggers),
	}
	// The drill budget: 1 cycle of reaction latency, unattainable by design
	// (the front-end group delay alone exceeds it), so the breach is certain
	// and seeded — the incident to replay.
	budgets := []slo.Budget{{
		Metric:      slo.MetricReactionP99,
		Max:         1,
		Description: "incident drill: deliberately unattainable reaction bound",
	}}
	rep := slo.Evaluate(budgets, metrics)
	if !quiet {
		if err := slo.WriteReport(os.Stdout, rep, metrics); err != nil {
			return nil, err
		}
	}
	if rep.Pass {
		return nil, fmt.Errorf("incident: drill budget unexpectedly met (reaction p99 %v cycles)", hr.P99)
	}
	c := rep.Failed()[0]
	detail := fmt.Sprintf("%s = %g > budget %g (%s)",
		c.Budget.Metric, c.Value, c.Budget.Max, c.Budget.Description)
	return fr.Trigger(flight.TriggerSLOBreach, r.Core().Clock().Cycle(), detail), nil
}

// runIncident is `-run incident`: replay the seeded SLO breach twice, verify
// the two dumps are byte-identical, and write the dump to flightOut.
func runIncident(flightOut string) error {
	fmt.Println("incident drill: seeded SLO breach → flight-recorder dump (E16)")
	d1, err := incidentRun(false)
	if err != nil {
		return err
	}
	d2, err := incidentRun(true)
	if err != nil {
		return err
	}
	b1, err := d1.Marshal()
	if err != nil {
		return err
	}
	b2, err := d2.Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Errorf("incident: replay diverged — dumps differ (%d vs %d bytes)", len(b1), len(b2))
	}
	h, err := d1.Hash()
	if err != nil {
		return err
	}
	fmt.Printf("  trigger %v at cycle %d: %s\n", d1.Trigger, d1.Cycle, d1.Detail)
	fmt.Printf("  dump: %d events (%d truncated), %d reg writes, %d I/Q samples\n",
		len(d1.Events), d1.EventsTruncated, len(d1.RegWrites), len(d1.IQ))
	fmt.Printf("  replayed twice, byte-identical: fnv1a %s\n", h)
	if flightOut != "" {
		if err := writeFile(flightOut, d1.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (%d bytes)\n", flightOut, len(b1))
	}
	return nil
}
