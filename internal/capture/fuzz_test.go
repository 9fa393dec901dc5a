package capture

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the recording parser against arbitrary input: it must
// never panic, and anything it accepts must re-serialize to an equivalent
// recording.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	_ = write(&seed, Header{SampleRateHz: 25_000_000, CenterFreqHz: 2.484e9},
		[]complex128{0.5, -0.25i, 0.1 + 0.1i})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("RJQ1 garbage that is not long enough"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, samples, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must round-trip.
		var buf bytes.Buffer
		if err := write(&buf, h, samples); err != nil {
			t.Fatalf("accepted recording failed to re-serialize: %v", err)
		}
		h2, s2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-serialized recording rejected: %v", err)
		}
		if h2.SampleRateHz != h.SampleRateHz || len(s2) != len(samples) {
			t.Fatalf("round-trip drift: %+v vs %+v", h2, h)
		}
	})
}
