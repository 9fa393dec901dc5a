package flight

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// populate replays a fixed engagement plus host traffic into the live
// recorder, deterministic by construction.
func populate(l *telemetry.Live) {
	l.Event(telemetry.EvRegWrite, 2, uint64(17)<<32|4096, 0)
	l.Event(telemetry.EvFrameStart, 100, 0, 0)
	l.Event(telemetry.EvEnergyHighEdge, 228, 0, 1)
	l.Event(telemetry.EvTriggerFire, 228, 0, 1)
	l.Event(telemetry.EvJamInit, 228, 0, 1)
	l.Event(telemetry.EvJamRFOn, 236, 0, 1)
	l.Event(telemetry.EvJamRFOff, 1236, 0, 1)
	l.Event(telemetry.EvHoldoffRelease, 1300, 0, 1)
	l.Event(telemetry.EvHostPoll, 2000, 0, 0)
}

func TestDumpCapturesEverything(t *testing.T) {
	live := telemetry.NewLive(64)
	r := New(live, 42)
	r.Arm()
	populate(live)
	r.RecordIQ([]complex128{1 + 2i, 3 + 4i})

	d := r.Trigger(TriggerManual, 2500, "test incident")
	if d.Version != DumpVersion || d.Trigger != TriggerManual || d.Cycle != 2500 {
		t.Fatalf("dump header = %+v", d)
	}
	if d.Seed != 42 || !d.Armed || d.Detail != "test incident" {
		t.Fatalf("dump context = %+v", d)
	}
	if len(d.Events) != 9 {
		t.Errorf("events = %d, want 9", len(d.Events))
	}
	if d.Engagements != 1 {
		t.Errorf("engagements = %d, want 1", d.Engagements)
	}
	if len(d.RegWrites) != 1 || d.RegWrites[0].Addr != 17 || d.RegWrites[0].Value != 4096 {
		t.Errorf("reg writes = %+v", d.RegWrites)
	}
	if len(d.IQ) != 2 || d.IQ[0] != [2]float64{1, 2} || d.IQ[1] != [2]float64{3, 4} {
		t.Errorf("iq = %+v", d.IQ)
	}
	var burst *HistDelta
	for i := range d.Histograms {
		if d.Histograms[i].Name == telemetry.HistJamBurst {
			burst = &d.Histograms[i]
		}
	}
	if burst == nil || burst.CountDelta != 1 {
		t.Errorf("burst delta = %+v", burst)
	}
	// The dump marker lands in the journal after capture, never inside the
	// dump itself.
	if got := live.EventCount(telemetry.EvFlightDump); got != 1 {
		t.Errorf("journal EvFlightDump count = %d, want 1", got)
	}
	for _, ev := range d.Events {
		if ev.Kind == "flight-dump" {
			t.Error("dump contains its own marker")
		}
	}
}

func TestArmAnchorsHistogramDeltas(t *testing.T) {
	live := telemetry.NewLive(64)
	r := New(live, 0)
	populate(live) // one burst before arming
	r.Arm()
	d := r.Trigger(TriggerManual, 3000, "")
	for _, h := range d.Histograms {
		if h.CountDelta != 0 {
			t.Errorf("%s: count delta = %d after arming past the activity", h.Name, h.CountDelta)
		}
	}
}

func TestEventTailBounded(t *testing.T) {
	live := telemetry.NewLive(1024)
	r := New(live, 0)
	const n = eventTail + 92
	for i := 0; i < n; i++ {
		live.Event(telemetry.EvHostPoll, uint64(i), 0, 0)
	}
	d := r.Trigger(TriggerAnomaly, n, "")
	if len(d.Events) != eventTail {
		t.Fatalf("events = %d, want %d", len(d.Events), eventTail)
	}
	if d.EventsTruncated != 92 {
		t.Errorf("truncated = %d, want 92", d.EventsTruncated)
	}
	// Newest events survive.
	if last := d.Events[eventTail-1].Cycle; last != n-1 {
		t.Errorf("last event cycle = %d, want %d", last, n-1)
	}
}

func TestIQRingKeepsNewest(t *testing.T) {
	live := telemetry.NewLive(16)
	r := New(live, 0)
	const n = iqDepth + 6
	for i := 0; i < n; i++ {
		r.RecordIQ([]complex128{complex(float64(i), 0)})
	}
	d := r.Trigger(TriggerManual, 1, "")
	if len(d.IQ) != iqDepth {
		t.Fatalf("iq = %d samples, want %d", len(d.IQ), iqDepth)
	}
	for i := range d.IQ {
		if want := float64(6 + i); d.IQ[i][0] != want {
			t.Errorf("iq[%d] = %v, want %g", i, d.IQ[i], want)
		}
	}
	// A block larger than the ring keeps only its newest samples.
	block := make([]complex128, iqDepth+2)
	for i := range block {
		block[i] = complex(float64(i), 0)
	}
	r2 := New(live, 0)
	r2.RecordIQ(block)
	d2 := r2.Trigger(TriggerManual, 1, "")
	if len(d2.IQ) != iqDepth || d2.IQ[0][0] != 2 || d2.IQ[iqDepth-1][0] != iqDepth+1 {
		t.Errorf("oversized block iq = %v … %v", d2.IQ[0], d2.IQ[len(d2.IQ)-1])
	}
}

func TestDumpDeterministicBytes(t *testing.T) {
	build := func() []byte {
		live := telemetry.NewLive(64)
		r := New(live, 7)
		r.Arm()
		populate(live)
		r.RecordIQ([]complex128{0.5 + 0.25i})
		d := r.Trigger(TriggerSLOBreach, 4000, "reaction_p99_cycles over budget")
		b, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different dump bytes:\n%s\nvs\n%s", a, b)
	}
	// Parses as JSON with the trigger by name.
	var back struct {
		Trigger string `json:"trigger"`
	}
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if back.Trigger != TriggerSLOBreach.String() {
		t.Errorf("trigger = %q, want %q", back.Trigger, TriggerSLOBreach)
	}
}

func TestHashMatchesBytes(t *testing.T) {
	live := telemetry.NewLive(64)
	r := New(live, 0)
	populate(live)
	d := r.Trigger(TriggerAnomaly, 5000, "duty cycle anomaly")
	h1, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := d.Hash()
	if h1 != h2 || len(h1) != 16 {
		t.Fatalf("hash unstable or malformed: %q vs %q", h1, h2)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b, _ := d.Marshal()
	if !bytes.Equal(buf.Bytes(), b) {
		t.Error("WriteJSON and Marshal disagree")
	}
}

func TestTriggerNamesStable(t *testing.T) {
	want := map[Trigger]string{
		TriggerManual:    "manual",
		TriggerSLOBreach: "slo-breach",
		TriggerAnomaly:   "anomaly",
	}
	for tr, name := range want {
		if tr.String() != name {
			t.Errorf("%d.String() = %q, want %q", tr, tr.String(), name)
		}
	}
}
