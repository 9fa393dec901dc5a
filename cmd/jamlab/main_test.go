package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/dsp"
	"repro/internal/fpga"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

// run evaluates each command on c in order and fails on the first error.
func run(t *testing.T, c *console, cmds ...string) {
	t.Helper()
	for _, cmd := range cmds {
		if err := c.eval(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
}

func TestEvalRejectsBadSizes(t *testing.T) {
	for _, cmd := range []string{
		"inject idle -1",
		"inject idle 0",
		"inject idle NaN",
		"inject idle +Inf",
		"inject idle 1e300",
		"inject idle 1001",
		"inject wifi 24 -5 1",
		"inject wifi 24 100 0",
		"inject wifib -3 1",
		"inject wifib 100 -1",
		"inject wimax -2",
		"inject wimax 0",
	} {
		var out bytes.Buffer
		if err := newConsole(&out).eval(cmd); err == nil {
			t.Errorf("%q accepted, printed %q", cmd, out.String())
		}
	}
}

func TestEvalReactiveJamming(t *testing.T) {
	var out bytes.Buffer
	run(t, newConsole(&out), "detect energy 10", "personality wgn 100us 0s 1", "inject wifi 24 100 3")
	if !strings.Contains(out.String(), "3 drew a jamming response") {
		t.Errorf("output %q lacks %q", out.String(), "3 drew a jamming response")
	}
}

func TestEvalRecordSaveReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jam.iq")
	var out bytes.Buffer
	run(t, newConsole(&out), "detect energy 10", "personality wgn 100us 0s 1",
		"record "+path, "inject wifi 24 100 2", "save")
	if want := "saved 5360 samples to " + path; !strings.Contains(out.String(), want) {
		t.Fatalf("output %q lacks %q", out.String(), want)
	}
	out.Reset()
	run(t, newConsole(&out), "detect energy 10", "replay "+path)
	if want := "replayed 5360 samples at 25000000 S/s"; !strings.Contains(out.String(), want) {
		t.Errorf("output %q lacks %q", out.String(), want)
	}
}

// The host-stream personality transmits a saved capture: a recording of
// WGN jamming played back draws a response to every frame.
func TestEvalHostPersonalityPlaysCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jam.iq")
	run(t, newConsole(&bytes.Buffer{}), "detect energy 10", "personality wgn 100us 0s 1",
		"record "+path, "inject wifi 24 100 3", "save")
	var out bytes.Buffer
	c := newConsole(&out)
	run(t, c, "detect energy 10", "personality host 100us 0s 1 "+path, "inject wifi 24 100 3")
	if !strings.Contains(out.String(), "3 drew a jamming response") {
		t.Errorf("output %q lacks %q", out.String(), "3 drew a jamming response")
	}
	if c.jam.Stats().JamSamples == 0 {
		t.Error("host-stream personality transmitted no jamming samples")
	}
}

// A host-stream personality without a usable capture is rejected before
// any register is written.
func TestEvalHostPersonalityRejectsBadCapture(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.iq")
	run(t, newConsole(&bytes.Buffer{}), "record "+empty, "save")
	wrongRate := filepath.Join(dir, "20msps.iq")
	rec, err := capture.NewRecorder(capture.Header{SampleRateHz: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	rec.Append(dsp.Samples{0.5, -0.5})
	file, err := os.Create(wrongRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finalize(file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	for _, cmd := range []string{
		"personality host 100us 0s 1",
		"personality host 100us 0s 1 " + filepath.Join(dir, "missing.iq"),
		"personality host 100us 0s 1 " + empty,
		"personality host 100us 0s 1 " + wrongRate,
	} {
		c := newConsole(&bytes.Buffer{})
		run(t, c, "personality wgn 100us 0s 1")
		before := c.jam.Stats().RegWrites
		if err := c.eval(cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
		if after := c.jam.Stats().RegWrites; after != before {
			t.Errorf("%q: %d register writes before the rejection", cmd, after-before)
		}
	}
}

func TestEvalSaveWithoutRecording(t *testing.T) {
	if err := newConsole(&bytes.Buffer{}).eval("save"); err == nil {
		t.Error("save without a recording accepted")
	}
}

func TestRunStopsAtQuitAndOnCancel(t *testing.T) {
	var out bytes.Buffer
	c := newConsole(&out)
	if err := c.run(context.Background(), strings.NewReader("# comment\n\nstats\nquit\nstats\n")); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "polls "); n != 1 {
		t.Errorf("%d stats lines before quit, want 1:\n%s", n, out.String())
	}

	// A signal ends the session while the input is still open.
	pr, pw := io.Pipe()
	defer pw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out.Reset()
	if err := c.run(ctx, pr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("output %q lacks %q", out.String(), "interrupted")
	}
}

// serve returns a console with telemetry enabled, served on a loopback
// port, and the server's base URL.
func serve(t *testing.T, out io.Writer) (*console, string) {
	t.Helper()
	c := newConsole(out)
	c.enableTelemetry("")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.serveTelemetry(ln, 5*time.Millisecond)
	t.Cleanup(func() {
		c.bcast.Stop()
		c.srv.Close()
	})
	return c, "http://" + ln.Addr().String()
}

var client = &http.Client{Timeout: 10 * time.Second}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return resp
}

// nextRollup reads the stream up to its next rollup.
func nextRollup(t *testing.T, sc *bufio.Scanner) telemetry.Rollup {
	t.Helper()
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var r telemetry.Rollup
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			t.Fatalf("bad rollup %q: %v", data, err)
		}
		return r
	}
	t.Fatalf("stream ended: %v", sc.Err())
	return telemetry.Rollup{}
}

func TestMetricsIsLintedFleetScrape(t *testing.T) {
	var out bytes.Buffer
	c, url := serve(t, &out)
	run(t, c, "detect energy 10", "personality wgn 100us 0s 1", "inject wifi 24 100 3")
	out.Reset()
	run(t, c, "stats")
	var samples uint64
	if _, err := fmt.Sscanf(out.String(), "samples %d", &samples); err != nil || samples == 0 {
		t.Fatalf("stats %q: samples %d, %v", out.String(), samples, err)
	}

	resp := get(t, url+"/metrics")
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := fleet.LintMetrics(bytes.NewReader(body), c.agg.LabelBudget())
	if err != nil || cells != 1 {
		t.Fatalf("lint: %d labelled cells, %v\n%s", cells, err, body)
	}
	want := fmt.Sprintf("reactivejam_cell_samples_total{cell=\"jamlab\"} %d\n", samples)
	if !strings.Contains(string(body), want) {
		t.Errorf("scrape lacks %q:\n%s", want, body)
	}
}

func TestStreamCarriesFleetAndCellRollups(t *testing.T) {
	c, url := serve(t, &bytes.Buffer{})
	resp := get(t, url+"/stream")
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	first, second := nextRollup(t, sc), nextRollup(t, sc)
	if first.Cell != "fleet" || second.Cell != "jamlab" || first.Seq != second.Seq {
		t.Fatalf("first frame = %s/%d, %s/%d; want fleet and jamlab of one tick",
			first.Cell, first.Seq, second.Cell, second.Seq)
	}
	if second.Alerts != 0 {
		t.Fatalf("alerts = %d before any alert", second.Alerts)
	}

	c.jam.Telemetry().Event(telemetry.EvAnomalyAlert, 1, 0, 0)
	for i := 0; ; i++ {
		r := nextRollup(t, sc)
		if r.Cell == "jamlab" && r.Alerts == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("the journaled alert never reached the stream")
		}
	}
}

func TestPprofIndexServed(t *testing.T) {
	_, url := serve(t, &bytes.Buffer{})
	get(t, url+"/debug/pprof/").Body.Close()
}

func TestShutdownDrainsOpenStream(t *testing.T) {
	var out bytes.Buffer
	c, url := serve(t, &out)
	resp := get(t, url+"/stream")
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	nextRollup(t, sc)

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.shutdown("")
	}()
	select {
	case <-done:
	case <-time.After(2 * drainTimeout):
		t.Fatal("shutdown did not return")
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if !strings.HasSuffix(string(rest), ": stream stopped\n\n") {
		t.Errorf("stream ended with %q", rest)
	}
	if !strings.Contains(out.String(), "fleet: 1 cell(s)") || strings.Contains(out.String(), "error") {
		t.Errorf("shutdown output:\n%s", out.String())
	}
}

func TestShutdownWritesTraceAndFlightDump(t *testing.T) {
	dir := t.TempDir()
	trace, dump := filepath.Join(dir, "trace.json"), filepath.Join(dir, "flight.json")
	var out bytes.Buffer
	c := newConsole(&out)
	c.enableTelemetry(dump)
	run(t, c, "detect energy 10", "personality wgn 100us 0s 1", "inject wifi 24 100 1")
	c.shutdown(trace)
	for _, path := range []string{trace, dump} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not JSON", path)
		}
	}
	if want := "telemetry: "; !strings.Contains(out.String(), want) {
		t.Errorf("output %q lacks the summary line", out.String())
	}
}

// The flight dump is stamped with the hardware clock that stamps the
// journal's events: no earlier than any of them, 4 cycles per sample, and
// not set back by reset (which clears only the counters).
func TestFlightDumpCycleIsHardwareClock(t *testing.T) {
	for _, withReset := range []bool{false, true} {
		dump := filepath.Join(t.TempDir(), "flight.json")
		c := newConsole(io.Discard)
		c.enableTelemetry(dump)
		run(t, c, "detect energy 10", "personality wgn 10us 0 1", "inject wifi 24 100 3")
		if withReset {
			run(t, c, "reset", "inject idle 1")
		}
		c.shutdown("")
		data, err := os.ReadFile(dump)
		if err != nil {
			t.Fatal(err)
		}
		var d struct {
			Cycle    uint64
			Counters struct{ Samples uint64 }
			Events   []struct{ Cycle uint64 }
		}
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		if len(d.Events) == 0 {
			t.Fatalf("reset=%v: dump holds no events", withReset)
		}
		for _, e := range d.Events {
			if e.Cycle > d.Cycle {
				t.Errorf("reset=%v: event at cycle %d after the dump's cycle %d",
					withReset, e.Cycle, d.Cycle)
			}
		}
		if !withReset && d.Cycle != fpga.CyclesPerSample*d.Counters.Samples {
			t.Errorf("dump cycle %d, want %d × %d samples",
				d.Cycle, fpga.CyclesPerSample, d.Counters.Samples)
		}
	}
}
