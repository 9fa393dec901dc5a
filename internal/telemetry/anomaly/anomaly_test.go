package anomaly

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// feedStable feeds n alternating observations around a stable level.
func feedStable(d *Detector, m Metric, n int, level float64) {
	for i := 0; i < n; i++ {
		v := level + float64(i%2)*0.1 - 0.05
		if _, fired := d.Observe(m, uint64(i), v); fired {
			panic("stable stream alerted")
		}
	}
}

func TestStableStreamNeverAlerts(t *testing.T) {
	d := New(nil)
	feedStable(d, MetricReactionP99, 500, 140)
	if len(d.alerts) != 0 {
		t.Fatalf("stable stream raised %d alerts", len(d.alerts))
	}
}

func TestLevelShiftAlertsOnce(t *testing.T) {
	d := New(nil)
	feedStable(d, MetricReactionP99, 64, 140)
	// A 10x tail-latency excursion must fire on the first bad observation.
	a, fired := d.Observe(MetricReactionP99, 9999, 1400)
	if !fired {
		t.Fatal("10x excursion did not alert")
	}
	if a.Metric != MetricReactionP99 || a.Cycle != 9999 || a.Value != 1400 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Score <= threshold {
		t.Errorf("score = %g, want > threshold %d", a.Score, threshold)
	}
	// Cooldown suppresses the echo while the EWMA catches up.
	if _, fired := d.Observe(MetricReactionP99, 10000, 1400); fired {
		t.Error("alert re-fired inside cooldown")
	}
	if got := len(d.alerts); got != 1 {
		t.Errorf("alerts = %d, want 1", got)
	}
}

func TestWarmupSuppressesEarlyAlerts(t *testing.T) {
	d := New(nil)
	// Wild early values: no baseline yet, so no alerts allowed.
	for i, v := range []float64{1, 1000, 2, 900, 3, 1000, 1, 900}[:warmup] {
		if _, fired := d.Observe(MetricDutyCycle, uint64(i), v); fired {
			t.Fatalf("alert during warmup at observation %d", i)
		}
	}
}

func TestAlertJournaledAsFirstClassEvent(t *testing.T) {
	live := telemetry.NewLive(64)
	d := New(live)
	feedStable(d, MetricFalseAlarmRate, 64, 0.1)
	if _, fired := d.Observe(MetricFalseAlarmRate, 777, 50); !fired {
		t.Fatal("excursion did not alert")
	}
	if got := live.EventCount(telemetry.EvAnomalyAlert); got != 1 {
		t.Fatalf("journal holds %d EvAnomalyAlert events, want 1", got)
	}
	evs := live.Events()
	ev := evs[len(evs)-1]
	if ev.Kind != telemetry.EvAnomalyAlert || ev.Cycle != 777 {
		t.Fatalf("journaled event = %+v", ev)
	}
	m, mz := Metric(ev.Arg>>32), uint32(ev.Arg)
	if m != MetricFalseAlarmRate {
		t.Errorf("decoded metric = %v", m)
	}
	if mz < 4000 {
		t.Errorf("decoded milli-z = %d, want >= 4000 (threshold)", mz)
	}
}

func TestOnAlertHookFires(t *testing.T) {
	d := New(nil)
	var hooked []Alert
	d.OnAlert = func(a Alert) { hooked = append(hooked, a) }
	feedStable(d, MetricPd, 64, 0.98)
	if _, fired := d.Observe(MetricPd, 5, 0.2); !fired {
		t.Fatal("Pd collapse did not alert")
	}
	if len(hooked) != 1 || hooked[0].Metric != MetricPd {
		t.Fatalf("hook saw %+v", hooked)
	}
}

func TestNonFiniteObservationsIgnored(t *testing.T) {
	d := New(nil)
	feedStable(d, MetricDutyCycle, 64, 0.5)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, fired := d.Observe(MetricDutyCycle, 1, v); fired {
			t.Errorf("non-finite value %v alerted", v)
		}
	}
	// Baseline must survive the garbage: a real excursion still fires.
	if _, fired := d.Observe(MetricDutyCycle, 2, 50); !fired {
		t.Error("excursion after non-finite values did not alert")
	}
}

func TestFeedSnapshotDerivesMetrics(t *testing.T) {
	live := telemetry.NewLive(256)
	d := New(live)

	// Synthesize rollup snapshots with a stable duty cycle, then a spike.
	c := &telemetry.Counters{}
	live.BindCounters(c)
	var cycle uint64
	step := func(samples, jam uint64) []Alert {
		c.Samples.Add(samples)
		c.JamSamples.Add(jam)
		cycle += samples
		return d.FeedSnapshot(cycle, live.Snapshot())
	}
	for i := 0; i < 32; i++ {
		if got := step(10000, 100); len(got) != 0 {
			t.Fatalf("stable rollup %d alerted: %+v", i, got)
		}
	}
	// Duty cycle jumps 1% → 60%: the jammer is stuck on.
	alerts := step(10000, 6000)
	if len(alerts) != 1 || alerts[0].Metric != MetricDutyCycle {
		t.Fatalf("alerts = %+v, want one duty-cycle alert", alerts)
	}
	if live.EventCount(telemetry.EvAnomalyAlert) != 1 {
		t.Error("snapshot-derived alert not journaled")
	}
}

func TestMetricNamesStable(t *testing.T) {
	want := map[Metric]string{
		MetricReactionP99:     "reaction_p99_cycles",
		MetricPd:              "pd",
		MetricFalseAlarmRate:  "false_alarms_per_sec",
		MetricJournalDropRate: "journal_drop_rate",
		MetricDutyCycle:       "engagement_duty_cycle",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), name)
		}
	}
}
