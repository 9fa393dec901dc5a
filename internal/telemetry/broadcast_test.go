package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testSource emits two cells per tick, the first with every rollup field a
// consumer reads set, so the fan-out and the JSON round trip are exercised.
func testSource(seq uint64) []Rollup {
	return []Rollup{
		{
			Seq:      seq,
			Cell:     "cell0",
			Counters: CounterSnapshot{Samples: 12345, JamTriggers: 3},
			Histograms: []HistRollup{
				{Name: HistJamBurst, Count: 1, P50: 1000, P99: 1000, Max: 1000},
			},
			Alerts:      1,
			Dumps:       1,
			Dropped:     2,
			Engagements: 4,
		},
		{Seq: seq, Cell: "cell1"},
	}
}

// testClient bounds every request, so a stream that never ends fails the
// test instead of hanging it.
var testClient = &http.Client{Timeout: 5 * time.Second}

// TestBroadcasterDropsStalledClient is the slow-consumer regression test:
// a subscriber that never drains its queue must be dropped and counted
// while a healthy subscriber keeps receiving rollups — the broadcast tick
// must never block on the stalled client.
func TestBroadcasterDropsStalledClient(t *testing.T) {
	b := NewBroadcaster(time.Millisecond, testSource)
	b.Start()
	defer b.Stop()

	// A never-reading client: subscribed, queue never drained.
	stalled := b.subscribe()

	// A healthy client drains continuously and tallies frames.
	healthy := b.subscribe()
	got := make(chan int)
	go func() {
		n := 0
		for range healthy.frames {
			n++
		}
		got <- n
	}()

	// The stalled client's queue (streamClientQueue frames, one already
	// holding the subscribe-time frame) fills within a few ticks and the
	// broadcaster must cut it loose.
	deadline := time.After(5 * time.Second)
	for b.DroppedClients() == 0 {
		select {
		case <-deadline:
			t.Fatal("stalled client never dropped")
		case <-time.After(time.Millisecond):
		}
	}
	if got := b.DroppedClients(); got != 1 {
		t.Fatalf("DroppedClients = %d, want 1", got)
	}
	// The dropped client's channel is closed.
	drained := 0
	for range stalled.frames {
		drained++
	}
	if drained > streamClientQueue {
		t.Fatalf("stalled client held %d frames, queue bound is %d", drained, streamClientQueue)
	}

	// The healthy client is still subscribed and keeps receiving.
	b.Stop()
	if n := <-got; n < 2 {
		t.Fatalf("healthy client got %d frames, want >= 2", n)
	}
	if got := b.DroppedClients(); got != 1 {
		t.Fatalf("healthy client counted as dropped: DroppedClients = %d", got)
	}
}

// streamRollups subscribes to a two-cell broadcaster over HTTP, checks the
// SSE headers and the `event: rollup` framing, and returns the rollups of
// each cell once at least three of cell0 have arrived.
func streamRollups(t *testing.T) (cell0, cell1 []Rollup) {
	t.Helper()
	b := NewBroadcaster(2*time.Millisecond, testSource)
	b.Start()
	defer b.Stop()

	srv := httptest.NewServer(b)
	defer srv.Close()
	resp, err := testClient.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var sawEventLine bool
	for len(cell0) < 3 && sc.Scan() {
		line := sc.Text()
		if line == "event: rollup" {
			sawEventLine = true
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var r Rollup
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			t.Fatalf("bad rollup %q: %v", line, err)
		}
		switch r.Cell {
		case "cell0":
			cell0 = append(cell0, r)
		case "cell1":
			cell1 = append(cell1, r)
		default:
			t.Fatalf("rollup for unknown cell %q", r.Cell)
		}
	}
	if len(cell0) < 3 {
		t.Fatalf("stream ended after %d rollups: %v", len(cell0), sc.Err())
	}
	if !sawEventLine {
		t.Error("no 'event: rollup' framing line seen")
	}
	return cell0, cell1
}

// TestBroadcasterServeHTTP: the /stream surface answers with SSE headers
// and `event: rollup` frames whose sequence numbers advance across ticks.
func TestBroadcasterServeHTTP(t *testing.T) {
	cell0, _ := streamRollups(t)
	if cell0[0].Seq == cell0[2].Seq {
		t.Errorf("seq did not advance: %d .. %d", cell0[0].Seq, cell0[2].Seq)
	}
}

// TestStreamHandlerPushesRollups is the host-side consumer check of the
// /stream endpoint: an SSE client must receive several rollup updates per
// cell, with per-cell fan-out of a two-cell source, and the counter, alert,
// dump, journal and histogram figures in every rollup.
func TestStreamHandlerPushesRollups(t *testing.T) {
	cell0, cell1 := streamRollups(t)
	// cell1 follows cell0 within each frame, so it trails by at most one.
	if len(cell1) < len(cell0)-1 {
		t.Errorf("fan-out: %d cell1 rollups for %d cell0 rollups", len(cell1), len(cell0))
	}
	for i, r := range cell0 {
		want := testSource(r.Seq)[0]
		if r.Counters != want.Counters {
			t.Errorf("rollup %d counters = %+v", i, r.Counters)
		}
		if r.Alerts != 1 || r.Dumps != 1 || r.Dropped != 2 || r.Engagements != 4 {
			t.Errorf("rollup %d alerts/dumps/dropped/engagements = %d/%d/%d/%d, want 1/1/2/4",
				i, r.Alerts, r.Dumps, r.Dropped, r.Engagements)
		}
		if len(r.Histograms) != 1 || r.Histograms[0] != want.Histograms[0] {
			t.Errorf("rollup %d histograms = %+v", i, r.Histograms)
		}
	}
}

// TestBroadcasterStopEndsStreams: Stop ends an open response with its own
// comment line, and a client it disconnects is not counted as stalled.
func TestBroadcasterStopEndsStreams(t *testing.T) {
	b := NewBroadcaster(time.Hour, testSource)
	b.Start()
	srv := httptest.NewServer(b)
	defer srv.Close()
	resp, err := testClient.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first frame: %v", sc.Err())
	}

	b.Stop()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream did not end: %v", err)
	}
	if !strings.HasSuffix(string(rest), ": stream stopped\n\n") {
		t.Errorf("stream ended with %q", rest)
	}
	if got := b.DroppedClients(); got != 0 {
		t.Errorf("DroppedClients = %d after Stop, want 0", got)
	}
}

// TestBroadcasterSubscribeAfterStop: a request arriving after Stop is
// answered and closed at once, so it cannot stall a server shutdown.
func TestBroadcasterSubscribeAfterStop(t *testing.T) {
	b := NewBroadcaster(time.Millisecond, testSource)
	b.Start()
	b.Stop()
	srv := httptest.NewServer(b)
	defer srv.Close()
	resp, err := testClient.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("late stream did not end: %v", err)
	}
	if string(body) != ": stream stopped\n\n" {
		t.Errorf("late stream = %q, want only the stop comment", body)
	}
}
