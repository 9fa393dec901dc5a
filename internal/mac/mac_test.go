package mac

import (
	"testing"
	"time"

	"repro/internal/wifi"
)

func TestTimingConstants(t *testing.T) {
	if DIFS != 28*time.Microsecond {
		t.Errorf("DIFS = %v, want 28µs", DIFS)
	}
	if SIFS != 10*time.Microsecond || SlotTime != 9*time.Microsecond {
		t.Error("SIFS/slot wrong for 802.11g short slot")
	}
}

func TestFrameAirtime(t *testing.T) {
	// 1470B payload at 54 Mbps: PSDU = 32+1470+4 = 1506 bytes ->
	// (16+12048+6)/216 = 56 symbols -> 320+80+56*80 samples at 20 MSPS.
	want := time.Duration(320+80+56*80) * time.Second / wifi.SampleRate
	if got := FrameAirtime(wifi.Rate54, 1470); got != want {
		t.Errorf("FrameAirtime = %v, want %v", got, want)
	}
	// Lower rate takes longer.
	if FrameAirtime(wifi.Rate6, 1470) <= FrameAirtime(wifi.Rate54, 1470) {
		t.Error("6 Mbps should be slower than 54")
	}
}

func TestAckAirtime(t *testing.T) {
	// 14-byte ACK at 24 Mbps: (16+112+6)/96 = 2 symbols -> 560 samples = 28µs.
	if got := AckAirtime(); got != 28*time.Microsecond {
		t.Errorf("AckAirtime = %v, want 28µs", got)
	}
}

func TestBackoffDoublesAndResets(t *testing.T) {
	b := NewBackoff(1)
	if b.cw != CWMin {
		t.Fatalf("initial CW %d", b.cw)
	}
	b.OnFailure()
	if b.cw != 2*CWMin+1 {
		t.Errorf("CW after failure %d, want %d", b.cw, 2*CWMin+1)
	}
	for i := 0; i < 10; i++ {
		b.OnFailure()
	}
	if b.cw != CWMax {
		t.Errorf("CW must saturate at %d, got %d", CWMax, b.cw)
	}
	b.OnSuccess()
	if b.cw != CWMin {
		t.Error("CW must reset on success")
	}
}

func TestBackoffDrawWithinWindow(t *testing.T) {
	b := NewBackoff(2)
	for i := 0; i < 1000; i++ {
		d := b.Draw()
		if d < 0 || d > time.Duration(CWMin)*SlotTime {
			t.Fatalf("draw %v outside [0, %v]", d, time.Duration(CWMin)*SlotTime)
		}
	}
}

func TestARFStepsDownAndUp(t *testing.T) {
	a := NewARF(wifi.Rate54)
	a.OnResult(false)
	a.OnResult(false)
	if a.Rate() != wifi.Rate48 {
		t.Errorf("after 2 failures rate %v, want 48Mbps", a.Rate())
	}
	for i := 0; i < 10; i++ {
		a.OnResult(true)
	}
	if a.Rate() != wifi.Rate54 {
		t.Errorf("after 10 successes rate %v, want 54Mbps", a.Rate())
	}
}

func TestARFBounds(t *testing.T) {
	a := NewARF(wifi.Rate6)
	for i := 0; i < 20; i++ {
		a.OnResult(false)
	}
	if a.Rate() != wifi.Rate6 {
		t.Error("rate must not fall below 6 Mbps")
	}
	b := NewARF(wifi.Rate54)
	for i := 0; i < 100; i++ {
		b.OnResult(true)
	}
	if b.Rate() != wifi.Rate54 {
		t.Error("rate must not rise above 54 Mbps")
	}
}

func TestCCA(t *testing.T) {
	noise := 1e-9
	if CCA(noise, noise) {
		t.Error("noise-floor ambient must be idle")
	}
	if !CCA(noise*1000, noise) { // +30 dB
		t.Error("strong ambient must be busy")
	}
	if CCA(noise*50, noise) { // +17 dB < 20 dB threshold
		t.Error("sub-threshold ambient must be idle")
	}
}

func TestSequencerDeliversFirstTry(t *testing.T) {
	s := NewSequencer(wifi.Rate54, 1)
	ok, err := s.SendMSDU(1470, func(a TxAttempt) bool {
		if a.Retry != 0 || a.Rate != wifi.Rate54 {
			t.Errorf("attempt %+v", a)
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("SendMSDU = %v, %v", ok, err)
	}
	// Elapsed covers DIFS + backoff + frame + SIFS + ACK.
	minimum := DIFS + FrameAirtime(wifi.Rate54, 1470) + SIFS + AckAirtime()
	if s.Elapsed() < minimum {
		t.Errorf("elapsed %v < floor %v", s.Elapsed(), minimum)
	}
}

func TestSequencerRetriesAndGivesUp(t *testing.T) {
	s := NewSequencer(wifi.Rate54, 2)
	attempts := 0
	ok, err := s.SendMSDU(100, func(TxAttempt) bool {
		attempts++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("delivered despite all failures")
	}
	if attempts != RetryLimit+1 {
		t.Errorf("%d attempts, want %d", attempts, RetryLimit+1)
	}
	if s.ConsecutiveMSDUFailures() != 1 {
		t.Error("failure run not counted")
	}
	// ARF must have stepped the rate down during the failure burst.
	if s.Rate() >= wifi.Rate54 {
		t.Errorf("rate did not fall: %v", s.Rate())
	}
}

func TestSequencerFailureRunResets(t *testing.T) {
	s := NewSequencer(wifi.Rate24, 3)
	fail := func(TxAttempt) bool { return false }
	okF := func(TxAttempt) bool { return true }
	if _, err := s.SendMSDU(10, fail); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMSDU(10, fail); err != nil {
		t.Fatal(err)
	}
	if s.ConsecutiveMSDUFailures() != 2 {
		t.Errorf("failure run %d", s.ConsecutiveMSDUFailures())
	}
	if _, err := s.SendMSDU(10, okF); err != nil {
		t.Fatal(err)
	}
	if s.ConsecutiveMSDUFailures() != 0 {
		t.Error("success did not reset failure run")
	}
}

func TestSequencerNilCallback(t *testing.T) {
	s := NewSequencer(wifi.Rate6, 4)
	if _, err := s.SendMSDU(10, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestSaturatedThroughputCeiling(t *testing.T) {
	// With a perfect channel, UDP goodput at 54 Mbps lands in the
	// 25-34 Mbps range the paper reports (~29 Mbps achieved max).
	s := NewSequencer(wifi.Rate54, 6)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := s.SendMSDU(1470, func(TxAttempt) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	mbps := float64(n) * 1470 * 8 / s.Elapsed().Seconds() / 1e6
	if mbps < 25 || mbps > 34 {
		t.Errorf("clean-channel goodput %.1f Mbps, want 25-34", mbps)
	}
}
