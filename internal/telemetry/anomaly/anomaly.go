// Package anomaly is the streaming anomaly detector of the observability
// plane: rolling-window EWMA + robust z-score detectors over the handful of
// per-engagement telemetry signals that predict trouble — reaction p99,
// detection probability, false-alarm rate, journal-drop rate and engagement
// duty cycle. A value that strays more than four robust sigmas from the
// rolling mean raises an Alert, which is journaled as a first-class
// EvAnomalyAlert event (so it lands in the Chrome trace and the /metrics
// rollups) and handed to an optional callback — the hook the flight recorder
// arms on.
//
// Everything is deterministic: no wall clock, no randomness. The robust
// scale estimate is an EWMA of absolute deviation scaled by 1.4826 (the
// MAD-to-sigma factor for a normal distribution), so a single outlier
// cannot poison the baseline the way a plain variance EWMA would let it.
package anomaly

import (
	"math"

	"repro/internal/telemetry"
)

// Metric identifies one watched signal. The numeric value is stable: it is
// journaled in EvAnomalyAlert's Arg high word and appears in trace args.
type Metric uint8

// The watched-signal catalog.
const (
	// MetricReactionP99 is the frame-start→RF-on p99 in clock cycles.
	MetricReactionP99 Metric = iota
	// MetricPd is the detection probability of the current window.
	MetricPd
	// MetricFalseAlarmRate is the noise-only trigger rate per second.
	MetricFalseAlarmRate
	// MetricJournalDropRate is the journal events lost per rollup interval.
	MetricJournalDropRate
	// MetricDutyCycle is jam samples transmitted per sample processed.
	MetricDutyCycle

	numMetrics
)

// String returns the stable report name of the metric.
func (m Metric) String() string {
	switch m {
	case MetricReactionP99:
		return "reaction_p99_cycles"
	case MetricPd:
		return "pd"
	case MetricFalseAlarmRate:
		return "false_alarms_per_sec"
	case MetricJournalDropRate:
		return "journal_drop_rate"
	case MetricDutyCycle:
		return "engagement_duty_cycle"
	default:
		return "metric(?)"
	}
}

// Alert is one detector firing: a watched metric strayed beyond the robust
// z-score threshold of its rolling window.
type Alert struct {
	// Metric is the signal that fired.
	Metric Metric `json:"metric"`
	// Name is the stable metric name (Metric.String(), serialized for
	// consumers that do not know the enum).
	Name string `json:"name"`
	// Cycle is the hardware-clock cycle the offending observation carried.
	Cycle uint64 `json:"cycle"`
	// Value is the observed value, Mean the rolling baseline it strayed
	// from, and Score the robust z-score that tripped the threshold.
	Value float64 `json:"value"`
	Mean  float64 `json:"mean"`
	Score float64 `json:"score"`
}

// The detector bank's tuning.
const (
	// window is the effective rolling-window length in observations; the
	// EWMA decay is 2/(window+1).
	window = 32
	// warmup is the number of observations a series must accumulate before
	// it may alert (a baseline estimated from two points is noise).
	warmup = 8
	// threshold is the robust z-score above which an observation alerts.
	threshold = 4
	// cooldown suppresses repeat alerts on the same metric for this many
	// observations after one fires, so a level shift raises one alert, not
	// an alert per sample while the EWMA catches up.
	cooldown = 8
)

// madToSigma converts a mean absolute deviation to a normal-equivalent
// standard deviation.
const madToSigma = 1.4826

// series is one metric's rolling state.
type series struct {
	n        uint64  // observations seen
	mean     float64 // EWMA of the value
	dev      float64 // EWMA of |value - mean|
	cooldown int     // observations left before the series may re-alert
}

// Detector is a bank of rolling-window detectors, one per watched metric.
// Not safe for concurrent use; the caller's rollup loop owns it.
type Detector struct {
	rec    *telemetry.Live // journal sink for alerts (nil: not journaled)
	series [numMetrics]series
	alerts []Alert
	// OnAlert, when set, is invoked for every alert after it is journaled —
	// the flight-recorder arming hook.
	OnAlert func(Alert)

	// FeedSnapshot deltas.
	prev    telemetry.Snapshot
	hasPrev bool
}

// New returns a detector bank journaling alerts into rec (nil journals
// none).
func New(rec *telemetry.Live) *Detector {
	return &Detector{rec: rec}
}

// Observe feeds one observation of a watched metric at the given hardware
// cycle and reports whether it raised an alert.
func (d *Detector) Observe(m Metric, cycle uint64, v float64) (Alert, bool) {
	if m >= numMetrics || math.IsNaN(v) || math.IsInf(v, 0) {
		return Alert{}, false
	}
	s := &d.series[m]
	s.n++
	if s.n == 1 {
		s.mean, s.dev = v, 0
		return Alert{}, false
	}
	// satScore stands in for an infinite z-score when the baseline has zero
	// spread (a perfectly constant series): any movement is maximally
	// anomalous, but the score must stay finite for JSON serialization.
	const satScore = 1e6
	score := 0.0
	sigma := madToSigma * s.dev
	switch {
	case sigma > 0:
		score = math.Abs(v-s.mean) / sigma
		if score > satScore {
			score = satScore
		}
	case v != s.mean:
		score = satScore
	}
	fired := false
	var alert Alert
	if s.cooldown > 0 {
		s.cooldown--
	} else if s.n > warmup && score > threshold {
		alert = Alert{
			Metric: m, Name: m.String(), Cycle: cycle,
			Value: v, Mean: s.mean, Score: score,
		}
		d.alerts = append(d.alerts, alert)
		s.cooldown = cooldown
		if d.rec != nil {
			d.rec.Event(telemetry.EvAnomalyAlert, cycle, EncodeArg(m, score), 0)
		}
		fired = true
	}
	// Update the rolling baseline after the decision, so the offending
	// observation does not vouch for itself.
	alpha := 2.0 / (window + 1)
	s.dev += alpha * (math.Abs(v-s.mean) - s.dev)
	s.mean += alpha * (v - s.mean)
	if fired && d.OnAlert != nil {
		d.OnAlert(alert)
	}
	return alert, fired
}

// FeedSnapshot derives the snapshot-borne watched metrics from the delta
// between this snapshot and the previous one, and observes each: reaction
// p99 (level), journal-drop rate and engagement duty cycle (both per-delta
// rates). Pd and the false-alarm rate come from the verdict layer and are
// fed through Observe directly by callers that have them. The first call
// establishes the delta baseline and observes nothing.
func (d *Detector) FeedSnapshot(cycle uint64, s telemetry.Snapshot) []Alert {
	before := len(d.alerts)
	if d.hasPrev {
		if h := s.Histogram(telemetry.HistReaction); h.Count > 0 {
			d.Observe(MetricReactionP99, cycle, float64(h.P99))
		}
		d.Observe(MetricJournalDropRate, cycle, float64(s.Dropped-d.prev.Dropped))
		if ds := s.Counters.Samples - d.prev.Counters.Samples; ds > 0 {
			dj := s.Counters.JamSamples - d.prev.Counters.JamSamples
			d.Observe(MetricDutyCycle, cycle, float64(dj)/float64(ds))
		}
	}
	d.prev, d.hasPrev = s, true
	return d.alerts[before:]
}

// EncodeArg packs a metric and score into an EvAnomalyAlert journal Arg:
// metric index in the high word, the score in milli-sigma (saturated) in
// the low word.
func EncodeArg(m Metric, score float64) uint64 {
	mz := score * 1000
	if mz > math.MaxUint32 {
		mz = math.MaxUint32
	}
	return uint64(m)<<32 | uint64(mz)
}
