package capture

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

// write records samples through a Recorder and finalizes the recording
// into w, the way jamlab's record and save commands do.
func write(w io.Writer, h Header, samples dsp.Samples) error {
	r, err := NewRecorder(h)
	if err != nil {
		return err
	}
	r.Append(samples)
	return r.Finalize(w)
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make(dsp.Samples, 500)
	for i := range in {
		in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1) * 0.9
	}
	var buf bytes.Buffer
	h := Header{SampleRateHz: 25_000_000, CenterFreqHz: 2.484e9, UnixNanos: 12345}
	if err := write(&buf, h, in); err != nil {
		t.Fatal(err)
	}
	got, out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRateHz != h.SampleRateHz || got.CenterFreqHz != h.CenterFreqHz ||
		got.UnixNanos != h.UnixNanos || got.Samples != 500 {
		t.Errorf("header %+v", got)
	}
	for i := range in {
		if math.Abs(real(out[i])-real(in[i])) > 1e-4 ||
			math.Abs(imag(out[i])-imag(in[i])) > 1e-4 {
			t.Fatalf("sample %d: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(re, im []byte) bool {
		n := min(len(re), len(im))
		in := make(dsp.Samples, n)
		for i := 0; i < n; i++ {
			in[i] = complex(float64(int8(re[i]))/128, float64(int8(im[i]))/128)
		}
		var buf bytes.Buffer
		if err := write(&buf, Header{SampleRateHz: 1000}, in); err != nil {
			return false
		}
		_, out, err := Read(&buf)
		if err != nil || len(out) != n {
			return false
		}
		for i := range in {
			if math.Abs(real(out[i])-real(in[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("shrt"))); err == nil {
		t.Error("truncated header accepted")
	}
	bad := make([]byte, 28)
	copy(bad, "XXXX")
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewRecorder(Header{}); err == nil {
		t.Error("recorder with zero rate accepted")
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	in := make(dsp.Samples, 10)
	if err := write(&buf, Header{SampleRateHz: 1000}, in); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-8]
	if _, _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestAbsurdHeaderRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := write(&buf, Header{SampleRateHz: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Claim 2^40 samples.
	raw[24], raw[25], raw[26], raw[27] = 0, 0, 0, 0
	raw[28] = 0
	raw[29] = 1
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("absurd sample count accepted")
	}
}

// A header that claims the 2^30-sample maximum but carries no payload must
// fail on the missing bytes without first allocating for the claim.
func TestHeaderOnlyClaimAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := write(&buf, Header{SampleRateHz: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[24:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only recording accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Read allocated %d bytes for a payload that is not there", got)
	}
}

func TestRecorderIncremental(t *testing.T) {
	r, err := NewRecorder(Header{SampleRateHz: 25_000_000, CenterFreqHz: 2.608e9})
	if err != nil {
		t.Fatal(err)
	}
	a := dsp.Samples{0.1, 0.2}
	b := dsp.Samples{0.3 + 0.4i}
	r.Append(a)
	r.Append(b)
	if r.Samples() != 3 {
		t.Errorf("Samples = %d", r.Samples())
	}
	var buf bytes.Buffer
	if err := r.Finalize(&buf); err != nil {
		t.Fatal(err)
	}
	h, out, err := Read(&buf)
	if err != nil || h.Samples != 3 {
		t.Fatalf("read back: %+v, %v", h, err)
	}
	if math.Abs(real(out[2])-0.3) > 1e-4 || math.Abs(imag(out[2])-0.4) > 1e-4 {
		t.Errorf("sample 2 = %v", out[2])
	}
}

func TestClippingSaturates(t *testing.T) {
	var buf bytes.Buffer
	if err := write(&buf, Header{SampleRateHz: 1}, dsp.Samples{complex(5, -5)}); err != nil {
		t.Fatal(err)
	}
	_, out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if real(out[0]) < 0.99 || imag(out[0]) > -0.99 {
		t.Errorf("clipped sample %v", out[0])
	}
}
