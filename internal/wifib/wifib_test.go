package wifib

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

var allRates = []Rate{Rate1, Rate2, Rate5_5, Rate11}

func TestRateProperties(t *testing.T) {
	for _, r := range allRates {
		got, err := rateFromSignal(r.signalByte())
		if err != nil || got != r {
			t.Errorf("%v: SIGNAL byte round-trip gave %v, %v", r, got, err)
		}
	}
	if _, err := rateFromSignal(0x42); err == nil {
		t.Error("bogus SIGNAL byte accepted")
	}
	if Rate(9).Valid() {
		t.Error("Rate(9) claims valid")
	}
}

func TestScramblerSelfSynchronizing(t *testing.T) {
	f := func(seedTX, seedRX uint8, data []byte) bool {
		if len(data) < 2 {
			return true
		}
		tx := NewScrambler(seedTX)
		// RX seeded differently: must still descramble correctly after the
		// first 7 bits (self-synchronization).
		rx := NewScrambler(seedRX)
		var ok = true
		for i, v := range data {
			b := v & 1
			d := rx.Descramble(tx.Scramble(b))
			if i >= 7 && d != b {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCRC16KnownProperties(t *testing.T) {
	// CRC of data followed by its own (un-complemented) CRC has a fixed
	// residual; simpler check: two different headers differ in CRC.
	a := make([]uint8, 32)
	b := make([]uint8, 32)
	b[5] = 1
	if CRC16(a) == CRC16(b) {
		t.Error("CRC16 collision on single-bit difference")
	}
}

func TestBarkerAutocorrelation(t *testing.T) {
	// The Barker code's aperiodic autocorrelation sidelobes are ≤ 1.
	for lag := 1; lag < BarkerLength; lag++ {
		var acc float64
		for i := 0; i+lag < BarkerLength; i++ {
			acc += Barker[i] * Barker[i+lag]
		}
		if math.Abs(acc) > 1 {
			t.Errorf("lag %d: autocorrelation %v", lag, acc)
		}
	}
}

func TestCCKChipsUnitModulus(t *testing.T) {
	chips := cckChips(0.3, math.Pi/2, math.Pi, 0)
	for i, c := range chips {
		if math.Abs(real(c)*real(c)+imag(c)*imag(c)-1) > 1e-12 {
			t.Errorf("chip %d modulus %v", i, c)
		}
	}
}

func TestModulateValidation(t *testing.T) {
	if _, err := Modulate(nil, Rate1, 0x1B); err == nil {
		t.Error("empty PSDU accepted")
	}
	if _, err := Modulate(make([]byte, MaxPSDU+1), Rate1, 0x1B); err == nil {
		t.Error("oversize PSDU accepted")
	}
	if _, err := Modulate([]byte{1}, Rate(7), 0x1B); err == nil {
		t.Error("bogus rate accepted")
	}
}

func TestPreambleDuration(t *testing.T) {
	// Long preamble + header = 192 µs at 1 Mbps, and a one-byte PSDU adds
	// 8 symbols: (192 + 8) symbols × 22 samples.
	wave, err := Modulate([]byte{0xAA}, Rate1, 0x1B)
	if err != nil {
		t.Fatal(err)
	}
	want := (192 + 8) * symbolSpan
	if len(wave) != want {
		t.Errorf("waveform %d samples, want %d", len(wave), want)
	}
}

func TestLoopbackAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range allRates {
		psdu := make([]byte, 64)
		rng.Read(psdu)
		wave, err := Modulate(psdu, r, 0x1B)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		res, err := Demodulate(wave, 0, 5*symbolSpan)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if res.Rate != r {
			t.Errorf("%v: decoded rate %v", r, res.Rate)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%v: PSDU corrupted (got %d bytes)", r, len(res.PSDU))
		}
	}
}

func TestLoopbackWithOffsetAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	psdu := make([]byte, 48)
	rng.Read(psdu)
	wave, err := Modulate(psdu, Rate11, 0x1B)
	if err != nil {
		t.Fatal(err)
	}
	buf := make(dsp.Samples, 300+len(wave)+100)
	copy(buf[300:], wave)
	buf.Scale(0.5)
	noise := dsp.NewNoiseSource(dsp.FromDB(-20)*0.25, 3) // 20 dB SNR
	noise.AddTo(buf)
	res, err := Demodulate(buf, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Sync may legitimately lock onto any whole-symbol offset within the
	// repetitive SYNC field.
	if res.Start < 300 || res.Start > 300+10*symbolSpan || (res.Start-300)%symbolSpan != 0 {
		t.Errorf("sync at %d, want 300 + k·%d", res.Start, symbolSpan)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Error("PSDU corrupted at 20 dB SNR")
	}
}

func TestLoopbackEveryScramblerSeed(t *testing.T) {
	// Seed 0x7D descrambles its first SYNC bits into the SFD's upper 11
	// bits; the hunt must not match them against a half-filled window.
	psdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for seed := 0; seed < 128; seed++ {
		wave, err := Modulate(psdu, Rate1, uint8(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Demodulate(wave, 0, 3*symbolSpan)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Fatalf("seed %#x: PSDU corrupted", seed)
		}
	}
}

func TestLoopbackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n uint8, rSel uint8, seed uint8) bool {
		r := allRates[rSel%4]
		psdu := make([]byte, 8+int(n)%120)
		rng.Read(psdu)
		wave, err := Modulate(psdu, r, seed)
		if err != nil {
			return false
		}
		res, err := Demodulate(wave, 0, 3*symbolSpan)
		if err != nil {
			return false
		}
		return bytes.Equal(res.PSDU, psdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestDemodulateNoiseFails(t *testing.T) {
	noise := dsp.NewNoiseSource(0.1, 5).Block(8000)
	if _, err := Demodulate(noise, 0, 2000); err == nil {
		t.Error("demodulated pure noise")
	}
}

func TestJammedHeaderFailsCRC(t *testing.T) {
	psdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	wave, err := Modulate(psdu, Rate2, 0x1B)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the header region (symbols 144..192) with strong noise.
	jam := dsp.NewNoiseSource(25, 6)
	for i := 144 * symbolSpan; i < 192*symbolSpan; i++ {
		wave[i] += jam.Sample()
	}
	if _, err := Demodulate(wave, 0, 3*symbolSpan); err == nil {
		t.Error("jammed header decoded")
	}
}

func TestSyncWaveformDeterministicPerSeed(t *testing.T) {
	a := SyncWaveform(6, 0x1B)
	b := SyncWaveform(6, 0x1B)
	c := SyncWaveform(6, 0x33)
	if len(a) != 6*symbolSpan {
		t.Fatalf("sync waveform %d samples", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Error("same seed differs")
			break
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different scrambler seeds gave identical SYNC")
	}
}

func TestTxTimeUS(t *testing.T) {
	cases := []struct {
		r    Rate
		n    int
		want int
	}{
		{Rate1, 100, 800},
		{Rate2, 100, 400},
		{Rate5_5, 100, 146},
		{Rate11, 100, 73},
	}
	for _, c := range cases {
		if got := txTimeUS(c.r, c.n); got != c.want {
			t.Errorf("txTimeUS(%v, %d) = %d, want %d", c.r, c.n, got, c.want)
		}
		if got := psduBytesFromLength(c.r, c.want, lengthExtension(c.r, c.n)); got != c.n {
			t.Errorf("psduBytesFromLength(%v, %d) = %d, want %d", c.r, c.want, got, c.n)
		}
	}
}
