package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	// Every value maps into a bucket whose upper bound is >= the value,
	// and bucket indices never decrease with the value.
	prev := -1
	for _, v := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000,
		1 << 20, 1<<20 + 1, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d)=%d below previous %d", v, i, prev)
		}
		if u := bucketUpper(i); u < v {
			t.Fatalf("bucketUpper(%d)=%d below value %d", i, u, v)
		}
		if i >= numBuckets {
			t.Fatalf("bucketIndex(%d)=%d out of range", v, i)
		}
		prev = i
	}
}

func TestBucketResolution(t *testing.T) {
	// Log-linear buckets keep relative error under 1/16 above the exact
	// range.
	for _, v := range []uint64{100, 137, 1000, 12345, 1 << 30} {
		u := bucketUpper(bucketIndex(v))
		if float64(u-v) > float64(v)/16+1 {
			t.Errorf("bucket upper %d too far above %d", u, v)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 560 {
		t.Errorf("p50 = %d, want ~500 within bucket resolution", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1000 {
		t.Errorf("p99 = %d, want ~990..1000", p99)
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("p100 = %d, want clamped to max 1000", h.Quantile(1))
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestJournalWrapAround(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Append(Event{Cycle: uint64(i)})
	}
	ev := j.Events()
	if len(ev) != 4 || j.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", len(ev), j.Dropped())
	}
	for i, e := range ev {
		if e.Cycle != uint64(i+2) {
			t.Fatalf("event %d has cycle %d, want oldest-first 2..5", i, e.Cycle)
		}
	}
}

// drive pushes one synthetic frame's event sequence through the recorder:
// frame start, xcorr edge, energy edge, trigger fire, jam on/off.
func drive(l *Live, base uint64) {
	l.Event(EvFrameStart, base, 0, 0)
	l.Event(EvXCorrEdge, base+256, 0, 1)      // 2.56 µs correlator latency
	l.Event(EvEnergyHighEdge, base+128, 0, 1) // energy window fills earlier
	l.Event(EvTriggerFire, base+128, 0, 1)    // single-stage energy trigger
	l.Event(EvJamInit, base+128, 0, 1)
	l.Event(EvJamRFOn, base+136, 0, 1)        // 8-cycle Tinit
	l.Event(EvJamRFOff, base+136+10000, 0, 1) // 100 µs burst
}

func TestLiveHistogramsFromEventPairs(t *testing.T) {
	l := NewLive(1024)
	for i := 0; i < 100; i++ {
		drive(l, uint64(1_000_000*i))
	}
	s := l.Snapshot()
	re := s.Histogram(HistReaction)
	if re.Count != 100 {
		t.Fatalf("reaction count = %d", re.Count)
	}
	// Frame → RF is 136 cycles = 1.36 µs: the 1.28 µs energy-detection
	// timeline plus the 80 ns Tinit, within bucket resolution.
	if d := re.P50Duration(); d < 1360*time.Nanosecond || d > 1500*time.Nanosecond {
		t.Errorf("reaction p50 = %v, want ~1.36 µs", d)
	}
	tr := s.Histogram(HistTriggerToRF)
	if tr.P50 != 8 {
		t.Errorf("trigger→RF p50 = %d cycles, want exactly 8 (80 ns)", tr.P50)
	}
	bu := s.Histogram(HistJamBurst)
	if bu.Count != 100 || bu.Min != 10000 {
		t.Errorf("burst count=%d min=%d, want 100 bursts of 10000 cycles", bu.Count, bu.Min)
	}
	if s.Histogram(HistXCorrLead).Count != 0 {
		// Energy edge arrived before the xcorr edge here, so no lead pair.
		t.Errorf("unexpected lead observations")
	}
}

func TestLiveLeadPairing(t *testing.T) {
	l := NewLive(64)
	l.Event(EvXCorrEdge, 1000, 0, 0)
	l.Event(EvEnergyHighEdge, 1128, 0, 0)
	s := l.Snapshot().Histogram(HistXCorrLead)
	if s.Count != 1 || s.Min != 128 {
		t.Fatalf("lead count=%d min=%d, want one 128-cycle lead", s.Count, s.Min)
	}
}

func TestWriteTraceParses(t *testing.T) {
	l := NewLive(64)
	l.Event(EvRegWrite, 5, uint64(12)<<32|77, 0)
	drive(l, 100)
	var buf bytes.Buffer
	if err := l.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	found := map[string]bool{}
	for _, e := range doc.TraceEvents {
		found[e.Name+"/"+e.Ph] = true
		if e.Name == "jam-burst" {
			if e.Dur != 100 { // 10000 cycles = 100 µs
				t.Errorf("jam-burst dur = %v µs, want 100", e.Dur)
			}
			if e.Ts != 2.36 { // cycle 236 = 2.36 µs
				t.Errorf("jam-burst ts = %v µs, want 2.36", e.Ts)
			}
		}
		if e.Name == "reg-write/i" {
			if e.Args["addr"] != float64(12) {
				t.Errorf("reg-write args = %v", e.Args)
			}
		}
	}
	for _, want := range []string{
		"frame-start/i", "xcorr-edge/i", "energy-high-edge/i",
		"trigger-fire/i", "jam-init/X", "jam-burst/X", "reg-write/i",
	} {
		if !found[want] {
			t.Errorf("trace missing event %s (have %v)", want, found)
		}
	}
}

func TestLiveConcurrentAccess(t *testing.T) {
	// Exercised under -race by the CI target: concurrent datapath events,
	// register writes and the reads a fleet scrape of a bound cell makes
	// must not race.
	l := NewLive(256)
	var c Counters
	l.BindCounters(&c)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch g {
				case 0:
					drive(l, uint64(i)*2000)
				case 1:
					l.Event(EvRegWrite, uint64(i), uint64(i)<<32, 0)
				case 2:
					_ = l.Snapshot()
				default:
					_ = l.EventCount(EvAnomalyAlert)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHistogramTable(t *testing.T) {
	l := NewLive(64)
	drive(l, 0)
	var buf bytes.Buffer
	if err := WriteHistogramTable(&buf, l.Snapshot().Histogram(HistReaction)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reaction_cycles: n=1") {
		t.Errorf("unexpected table output:\n%s", buf.String())
	}
}

// eagerJournal is the ring the Journal kept before it grew its storage on
// demand: all depth slots allocated up front. TestJournalMatchesEagerRing
// holds the growing journal to it.
type eagerJournal struct {
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

func (j *eagerJournal) append(e Event) {
	if j.full {
		j.dropped++
	}
	j.buf[j.next] = e
	j.next++
	if j.next == len(j.buf) {
		j.next = 0
		j.full = true
	}
}

func (j *eagerJournal) events() []Event {
	out := make([]Event, 0, len(j.buf))
	if j.full {
		out = append(out, j.buf[j.next:]...)
	}
	return append(out, j.buf[:j.next]...)
}

func TestJournalMatchesEagerRing(t *testing.T) {
	for _, depth := range []int{1, 3, journalFirstCap - 1, journalFirstCap, journalFirstCap + 1, 200} {
		j := NewJournal(depth)
		ref := &eagerJournal{buf: make([]Event, depth)}
		for round := 0; round < 2; round++ {
			for i := 0; i < 3*depth+2; i++ {
				if j.Len() != len(ref.events()) || j.Dropped() != ref.dropped {
					t.Fatalf("depth %d round %d after %d appends: len %d dropped %d, eager ring %d and %d",
						depth, round, i, j.Len(), j.Dropped(), len(ref.events()), ref.dropped)
				}
				if got, want := j.Events(), ref.events(); !slices.Equal(got, want) {
					t.Fatalf("depth %d round %d after %d appends: events %v, eager ring %v", depth, round, i, got, want)
				}
				e := Event{Cycle: uint64(1000*round + i), Kind: EventKind(i % 5), Arg: uint64(i), Eng: uint32(round)}
				j.Append(e)
				ref.append(e)
			}
			if cap(j.buf) != depth {
				t.Fatalf("depth %d: storage of %d events after wrapping", depth, cap(j.buf))
			}
			j.Reset()
			ref = &eagerJournal{buf: make([]Event, depth)}
		}
	}
}

func TestJournalGrowsOnDemand(t *testing.T) {
	j := NewJournal(DefaultJournalDepth)
	if cap(j.buf) != 0 {
		t.Fatalf("new journal holds storage for %d events, want none", cap(j.buf))
	}
	for i := 0; i < 42; i++ {
		j.Append(Event{Cycle: uint64(i)})
	}
	if cap(j.buf) != journalFirstCap {
		t.Fatalf("42 events: storage for %d, want %d", cap(j.buf), journalFirstCap)
	}
	full := NewJournal(1 << 10)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4<<10; i++ {
			full.Append(Event{Cycle: uint64(i)})
		}
	})
	// 64, 128, ..., 1024 events: five allocations over the first run, none
	// in the second (AllocsPerRun's warm-up run is the first).
	if allocs != 0 {
		t.Fatalf("appends to a full journal allocate %.0f times", allocs)
	}
}
