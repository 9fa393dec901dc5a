package span

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// journal builds a synthetic two-engagement journal: engagement 1 is a full
// detect → fire → delay → init → burst → holdoff chain, engagement 2 is a
// noise edge that never triggers.
func journal() []telemetry.Event {
	return []telemetry.Event{
		{Cycle: 10, Kind: telemetry.EvFrameStart},         // eng 0: ignored
		{Cycle: 100, Kind: telemetry.EvXCorrEdge, Eng: 1}, // opens eng 1
		{Cycle: 100, Kind: telemetry.EvTriggerArm, Eng: 1, Arg: 1},
		{Cycle: 128, Kind: telemetry.EvEnergyHighEdge, Eng: 1},
		{Cycle: 128, Kind: telemetry.EvTriggerFire, Eng: 1},
		{Cycle: 128, Kind: telemetry.EvJamDelay, Eng: 1},
		{Cycle: 160, Kind: telemetry.EvJamInit, Eng: 1},
		{Cycle: 168, Kind: telemetry.EvJamRFOn, Eng: 1},
		{Cycle: 10168, Kind: telemetry.EvJamRFOff, Eng: 1},
		{Cycle: 10232, Kind: telemetry.EvHoldoffRelease, Eng: 1},
		{Cycle: 20000, Kind: telemetry.EvEnergyLowEdge, Eng: 2}, // noise
		{Cycle: 20064, Kind: telemetry.EvHoldoffRelease, Eng: 2},
	}
}

func TestBuildFullEngagement(t *testing.T) {
	engs := Build(journal())
	if len(engs) != 2 {
		t.Fatalf("got %d engagements, want 2", len(engs))
	}
	e := engs[0]
	if e.ID != 1 || e.FirstEdge != 100 {
		t.Fatalf("eng1 id=%d firstEdge=%d", e.ID, e.FirstEdge)
	}
	if !e.HasFire || e.Fire != 128 {
		t.Errorf("fire = %d (has=%v), want 128", e.Fire, e.HasFire)
	}
	if !e.HasRF || e.RFOn != 168 || e.RFOff != 10168 {
		t.Errorf("rf on/off = %d/%d", e.RFOn, e.RFOff)
	}
	if !e.Complete || e.Release != 10232 {
		t.Errorf("release = %d complete=%v", e.Release, e.Complete)
	}
	if len(e.Events) != 9 {
		t.Errorf("eng1 carries %d events, want 9", len(e.Events))
	}
}

func TestTreeStructure(t *testing.T) {
	engs := Build(journal())
	tree := engs[0].Tree()
	if tree.Name != "engagement-1" || tree.Start != 100 || tree.End != 10232 {
		t.Fatalf("root = %+v", tree)
	}
	names := make([]string, len(tree.Children))
	for i, c := range tree.Children {
		names[i] = c.Name
	}
	want := []string{"detect", "turnaround", "burst", "holdoff"}
	if len(names) != len(want) {
		t.Fatalf("children = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("children = %v, want %v", names, want)
		}
	}
	turn := tree.Children[1]
	if len(turn.Children) != 2 ||
		turn.Children[0].Name != "jam-delay" || turn.Children[1].Name != "duc-fill" {
		t.Fatalf("turnaround children = %+v", turn.Children)
	}
	if d := turn.Children[1]; d.Start != 160 || d.End != 168 {
		t.Errorf("duc-fill = [%d,%d], want [160,168] (8-cycle Tinit)", d.Start, d.End)
	}
	// Children tile the causal chain: each starts where the previous ended.
	if tree.Children[0].End != tree.Children[1].Start ||
		tree.Children[1].End != tree.Children[2].Start ||
		tree.Children[2].End != tree.Children[3].Start {
		t.Errorf("spans do not tile: %+v", tree.Children)
	}
}

func TestNoiseEngagementTree(t *testing.T) {
	engs := Build(journal())
	e := engs[1]
	if e.HasFire || e.HasRF {
		t.Fatalf("noise engagement has fire/rf: %+v", e)
	}
	tree := e.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "holdoff" {
		t.Fatalf("noise tree children = %+v", tree.Children)
	}
	if h := tree.Children[0]; h.Start != 20000 || h.End != 20064 {
		t.Errorf("holdoff = [%d,%d]", h.Start, h.End)
	}
}

func TestIncompleteEngagement(t *testing.T) {
	// Journal truncated mid-burst: engagement must not claim completion and
	// End() falls back to the last event seen.
	ev := journal()[:8] // through EvJamRFOn
	engs := Build(ev)
	e := engs[0]
	if e.Complete {
		t.Fatal("truncated engagement reported complete")
	}
	if e.End() != 168 {
		t.Errorf("End() = %d, want last event 168", e.End())
	}
	for _, c := range e.Tree().Children {
		if c.Name == "burst" {
			t.Error("burst reported for engagement with no RF-off")
		}
	}
}

func TestWriteTree(t *testing.T) {
	engs := Build(journal())
	var buf bytes.Buffer
	if err := WriteTree(&buf, &engs[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"engagement-1 @100 +10132 cyc",
		"  detect @100 +28 cyc",
		"  turnaround @128 +40 cyc",
		"    duc-fill @160 +8 cyc (80ns)",
		"  burst @168 +10000 cyc (100µs)",
		"  holdoff @10168 +64 cyc",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

// wrappedJournal streams two full engagements through a Live recorder whose
// ring is too small to hold both, so the first engagement's opening edges
// (detector edge, trigger fire, RF-on) fall off the ring mid-engagement and
// only its tail survives.
func wrappedJournal(t *testing.T, depth int) *telemetry.Live {
	t.Helper()
	live := telemetry.NewLive(depth)
	feed := []telemetry.Event{
		{Cycle: 100, Kind: telemetry.EvEnergyHighEdge, Eng: 1},
		{Cycle: 128, Kind: telemetry.EvTriggerFire, Eng: 1},
		{Cycle: 168, Kind: telemetry.EvJamRFOn, Eng: 1},
		{Cycle: 10168, Kind: telemetry.EvJamRFOff, Eng: 1},
		{Cycle: 10232, Kind: telemetry.EvHoldoffRelease, Eng: 1},
		{Cycle: 20000, Kind: telemetry.EvEnergyHighEdge, Eng: 2},
		{Cycle: 20028, Kind: telemetry.EvTriggerFire, Eng: 2},
		{Cycle: 20068, Kind: telemetry.EvJamRFOn, Eng: 2},
		{Cycle: 30068, Kind: telemetry.EvJamRFOff, Eng: 2},
		{Cycle: 30132, Kind: telemetry.EvHoldoffRelease, Eng: 2},
	}
	for _, ev := range feed {
		live.Event(ev.Kind, ev.Cycle, ev.Arg, ev.Eng)
	}
	if live.Dropped() == 0 {
		t.Fatalf("depth %d did not wrap the ring", depth)
	}
	return live
}

// assertSane walks a span tree rejecting negative intervals and children
// escaping their parent — the degradation contract for truncated inputs.
func assertSane(t *testing.T, s Span) {
	t.Helper()
	if s.End < s.Start {
		t.Errorf("negative span %s [%d,%d]", s.Name, s.Start, s.End)
	}
	for _, c := range s.Children {
		if c.Start < s.Start || c.End > s.End {
			t.Errorf("child %s [%d,%d] escapes parent %s [%d,%d]",
				c.Name, c.Start, c.End, s.Name, s.Start, s.End)
		}
		assertSane(t, c)
	}
}

func TestBuildAfterRingWrapMidEngagement(t *testing.T) {
	// Depth 7: engagement 1 loses its edge, fire, and RF-on events; its
	// RF-off and holdoff release survive alongside all of engagement 2.
	live := wrappedJournal(t, 7)
	engs := Build(live.Events())
	if len(engs) != 2 {
		t.Fatalf("got %d engagements, want 2", len(engs))
	}

	e1 := engs[0]
	if e1.ID != 1 {
		t.Fatalf("first engagement id = %d", e1.ID)
	}
	// The dropped RF-on must not be fabricated: no fire, no RF, no burst,
	// no reaction figure — the orphaned RF-off cannot mis-pair.
	if e1.HasFire || e1.HasRF {
		t.Errorf("truncated engagement claims fire/rf: %+v", e1)
	}
	// The surviving close edge still closes it, anchored at the first
	// surviving event rather than the lost opening edge.
	if !e1.Complete || e1.Release != 10232 {
		t.Errorf("release = %d complete=%v", e1.Release, e1.Complete)
	}
	if e1.FirstEdge != 10168 {
		t.Errorf("first edge = %d, want 10168 (first surviving event)", e1.FirstEdge)
	}
	for _, ev := range e1.Events {
		if ev.Eng != 1 {
			t.Errorf("engagement 1 absorbed foreign event %+v", ev)
		}
	}
	assertSane(t, e1.Tree())

	// Engagement 2 survived intact and pairs exactly as without the wrap.
	e2 := engs[1]
	if !e2.HasRF || e2.RFOn != 20068 || e2.RFOff != 30068 {
		t.Errorf("eng2 rf = %d/%d", e2.RFOn, e2.RFOff)
	}
	if !e2.Complete || e2.Release != 30132 {
		t.Errorf("eng2 release = %d complete=%v", e2.Release, e2.Complete)
	}
	assertSane(t, e2.Tree())
}

func TestBuildAfterDeepWrap(t *testing.T) {
	// Depth 6: engagement 1 is reduced to its holdoff release alone — a
	// zero-width engagement, still rendered without panic or negative spans.
	live := wrappedJournal(t, 6)
	engs := Build(live.Events())
	if len(engs) != 2 {
		t.Fatalf("got %d engagements, want 2", len(engs))
	}
	e1 := engs[0]
	if len(e1.Events) != 1 || !e1.Complete {
		t.Fatalf("eng1 = %+v, want single surviving release event", e1)
	}
	if e1.FirstEdge != e1.Release {
		t.Errorf("zero-width engagement spans [%d,%d]", e1.FirstEdge, e1.Release)
	}
	assertSane(t, e1.Tree())
	var buf bytes.Buffer
	if err := WriteTree(&buf, &e1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "engagement-1 @10232 +0 cyc") {
		t.Errorf("tree rendering:\n%s", buf.String())
	}
}
