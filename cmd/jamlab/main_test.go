package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
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

func TestEvalSaveWithoutRecording(t *testing.T) {
	if err := newConsole(&bytes.Buffer{}).eval("save"); err == nil {
		t.Error("save without a recording accepted")
	}
}
