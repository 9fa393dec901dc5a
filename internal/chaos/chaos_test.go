package chaos

import (
	"bytes"
	"encoding/json"
	"testing"
)

func invariantByName(t *testing.T, res *Result, name string) Invariant {
	t.Helper()
	for _, inv := range res.Invariants {
		if inv.Name == name {
			return inv
		}
	}
	t.Fatalf("invariant %q not in result", name)
	return Invariant{}
}

// The acceptance gate: a zero-severity campaign checks at least 5 distinct
// invariants and every one of them holds outright.
func TestControlCampaignAllHeld(t *testing.T) {
	res, err := Run(Config{Plan: Plan{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invariants) < 5 {
		t.Fatalf("only %d invariants checked, want >= 5", len(res.Invariants))
	}
	names := make(map[string]bool)
	for _, inv := range res.Invariants {
		if names[inv.Name] {
			t.Errorf("duplicate invariant name %q", inv.Name)
		}
		names[inv.Name] = true
		if inv.Status != Held {
			t.Errorf("invariant %s = %s (%s), want held", inv.Name, inv.Status, inv.Detail)
		}
	}
	if res.FaultTotal != 0 || len(res.Faults) != 0 {
		t.Errorf("control campaign injected %d faults, want 0", res.FaultTotal)
	}
	if res.Held != len(res.Invariants) || res.Degraded != 0 || res.Broken != 0 {
		t.Errorf("tallies held/degraded/broken = %d/%d/%d", res.Held, res.Degraded, res.Broken)
	}
	// The control campaign must actually exercise the datapath: triggers
	// fired and the turnaround bound was genuinely observed.
	if inv := invariantByName(t, res, "tinit-bound"); inv.Status != Held {
		t.Errorf("tinit-bound not observable in control campaign: %s", inv.Detail)
	}
}

// Same plan, two runs: identical fault ledgers and byte-identical marshaled
// results, for every fault class.
func TestCampaignReplaysBitIdentically(t *testing.T) {
	for _, class := range append([]string{"control"}, Classes()...) {
		plan, err := PlanFor(class, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(Config{Plan: plan})
		if err != nil {
			t.Fatalf("%s run 1: %v", class, err)
		}
		b, err := Run(Config{Plan: plan})
		if err != nil {
			t.Fatalf("%s run 2: %v", class, err)
		}
		if a.LedgerHash != b.LedgerHash {
			t.Errorf("%s: ledger hash %s vs %s", class, a.LedgerHash, b.LedgerHash)
		}
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: marshaled results differ:\n%s\n%s", class, ja, jb)
		}
		if len(a.Faults) != len(b.Faults) {
			t.Errorf("%s: ledger lengths differ: %d vs %d", class, len(a.Faults), len(b.Faults))
		}
		for i := range a.Faults {
			if a.Faults[i] != b.Faults[i] {
				t.Errorf("%s: ledger diverges at %d: %+v vs %+v", class, i, a.Faults[i], b.Faults[i])
				break
			}
		}
	}
}

// The full sweep emits a byte-identical JSONL report on replay.
func TestSweepReportReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	run := func() []byte {
		results, err := RunSweep(SweepConfig{Seed: 42, Frames: 8, Severities: []int{1, 3}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("sweep reports differ between identical runs")
	}
	// Control row leads and must be violation-free.
	var first struct {
		Class  string `json:"class"`
		Broken int    `json:"broken"`
	}
	if err := json.Unmarshal(a[:bytes.IndexByte(a, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	if first.Class != "control" || first.Broken != 0 {
		t.Errorf("first row class=%q broken=%d, want control with 0 broken", first.Class, first.Broken)
	}
}

// Register-bus faults at full severity: writes visibly drop, yet the
// structural invariants survive (a fully unprogrammed core is a valid —
// silent — datapath).
func TestRegBusFaultsRecorded(t *testing.T) {
	res, err := Run(Config{Plan: Plan{Seed: 3, RegDropProb: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultTotal == 0 {
		t.Fatal("no faults recorded with RegDropProb=1")
	}
	for _, f := range res.Faults {
		if f.Kind != FaultRegDrop {
			t.Errorf("unexpected fault kind %s", f.Kind)
		}
	}
	if res.Broken != 0 {
		t.Errorf("broken invariants under pure write loss: %+v", res.Invariants)
	}
	if inv := invariantByName(t, res, "register-readback"); inv.Status != Held {
		t.Errorf("register-readback = %s (%s)", inv.Status, inv.Detail)
	}
	if inv := invariantByName(t, res, "counter-ledger-reconcile"); inv.Status != Held {
		t.Errorf("counter-ledger-reconcile = %s (%s)", inv.Status, inv.Detail)
	}
}

// Stream corruption at high severity must never break block/sample parity or
// kernel bit-exactness — both paths see the identical corrupted bytes.
func TestStreamFaultsKeepParity(t *testing.T) {
	plan, err := PlanFor("stream", 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultTotal == 0 {
		t.Fatal("severity-3 stream plan injected nothing")
	}
	if inv := invariantByName(t, res, "block-sample-parity"); inv.Status != Held {
		t.Errorf("block-sample-parity = %s (%s)", inv.Status, inv.Detail)
	}
	if inv := invariantByName(t, res, "xcorr-bit-exact"); inv.Status != Held {
		t.Errorf("xcorr-bit-exact = %s (%s)", inv.Status, inv.Detail)
	}
	if res.Broken != 0 {
		t.Errorf("broken invariants under stream faults: %+v", res.Invariants)
	}
}

// Journal pressure degrades the journal-derived invariants without breaking
// anything: the ring wrapped, so full-run claims become unobservable.
func TestJournalPressureDegrades(t *testing.T) {
	res, err := Run(Config{Plan: Plan{Seed: 5, JournalDepth: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Broken != 0 {
		t.Errorf("broken invariants under journal pressure: %+v", res.Invariants)
	}
	if inv := invariantByName(t, res, "engagement-ledger"); inv.Status != Degraded {
		t.Errorf("engagement-ledger = %s, want degraded under a 32-deep journal", inv.Status)
	}
	var pressure bool
	for _, f := range res.Faults {
		if f.Kind == FaultJournalPressure {
			pressure = true
		}
	}
	if !pressure {
		t.Error("journal-pressure fault not in ledger")
	}
}

// A delayed commit reorders a real register write in time; the readback
// model and both cores must still agree, and the delay must be ledgered.
func TestDelayedCommits(t *testing.T) {
	res, err := Run(Config{Plan: Plan{Seed: 9, RegDelayProb: 0.5, RegDelayBlocks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var delays int
	for _, f := range res.Faults {
		if f.Kind == FaultRegDelay {
			delays++
		}
	}
	if delays == 0 {
		t.Fatal("no delayed commits at RegDelayProb=0.5")
	}
	if res.Broken != 0 {
		t.Errorf("broken invariants under delayed commits: %+v", res.Invariants)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Run(Config{Plan: Plan{RegDropProb: 1.5}}); err == nil {
		t.Error("RegDropProb=1.5 accepted")
	}
	if _, err := Run(Config{Plan: Plan{JournalDepth: -1}}); err == nil {
		t.Error("negative JournalDepth accepted")
	}
	if _, err := PlanFor("nonsense", 1, 0); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := PlanFor("regbus", -1, 0); err == nil {
		t.Error("negative severity accepted")
	}
}
