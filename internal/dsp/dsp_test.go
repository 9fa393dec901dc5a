package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSamples(rng *rand.Rand, n int) Samples {
	s := make(Samples, n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

func TestFFTKnownTone(t *testing.T) {
	const n = 64
	// A complex exponential at bin 5 must concentrate all energy in bin 5.
	x := Tone(n, 5.0/n, 1.0)
	FFT(x)
	for k := range x {
		mag := cmplx.Abs(x[k])
		if k == 5 {
			if math.Abs(mag-n) > 1e-6 {
				t.Errorf("bin 5 magnitude = %v, want %v", mag, float64(n))
			}
		} else if mag > 1e-6 {
			t.Errorf("bin %d magnitude = %v, want 0", k, mag)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make(Samples, 16)
	x[0] = 1
	FFT(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (3 + sizeSel%6) // 8..256
		_ = seed
		x := randSamples(rng, n)
		orig := x.Clone()
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(sizeSel uint8) bool {
		n := 1 << (4 + sizeSel%5)
		x := randSamples(rng, n)
		timeE := x.Energy()
		FFT(x)
		freqE := x.Energy() / float64(n)
		return math.Abs(timeE-freqE) < 1e-6*timeE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 12 should panic")
		}
	}()
	FFT(make(Samples, 12))
}

func TestPowerAndScale(t *testing.T) {
	x := Samples{1, 1i, -1, -1i}
	if p := x.Power(); math.Abs(p-1) > 1e-12 {
		t.Errorf("Power = %v, want 1", p)
	}
	var empty Samples
	if empty.Power() != 0 {
		t.Error("empty power should be 0")
	}
}

func TestDBConversions(t *testing.T) {
	cases := []struct{ lin, db float64 }{
		{1, 0}, {10, 10}, {100, 20}, {0.1, -10},
	}
	for _, c := range cases {
		if got := DB(c.lin); math.Abs(got-c.db) > 1e-9 {
			t.Errorf("DB(%v) = %v, want %v", c.lin, got, c.db)
		}
		if got := FromDB(c.db); math.Abs(got-c.lin) > 1e-9*c.lin {
			t.Errorf("FromDB(%v) = %v, want %v", c.db, got, c.lin)
		}
	}
	if got := AmplitudeFromDB(20); math.Abs(got-10) > 1e-9 {
		t.Errorf("AmplitudeFromDB(20) = %v, want 10", got)
	}
}

func TestToneFrequency(t *testing.T) {
	// Tone at fs/8: every 8th sample returns to the start.
	x := Tone(16, 1.0/8, 1.0)
	if cmplx.Abs(x[0]-1) > 1e-12 || cmplx.Abs(x[8]-1) > 1e-12 {
		t.Errorf("tone period wrong: x[0]=%v x[8]=%v", x[0], x[8])
	}
}

func TestAddAndClone(t *testing.T) {
	a := Samples{1, 2, 3}
	b := a.Clone()
	a.Add(Samples{1, 1})
	if a[0] != 2 || a[1] != 3 || a[2] != 3 {
		t.Errorf("Add result %v", a)
	}
	if b[0] != 1 {
		t.Error("Clone must not alias")
	}
}

// TestFrame checks the layout, the scale the hand-written loops it replaced
// computed (√(floor·10^(snr/10))/√P, to the bit, at several SNRs), the
// reuse of dst's storage and that a warm call allocates nothing.
func TestFrame(t *testing.T) {
	wave := randSamples(rand.New(rand.NewSource(1)), 80)
	const lead, tail, floor = 7, 13, 1e-6
	dst := make(Samples, 3, 200)
	for _, snr := range []float64{-3, 0, 6, 10.3, 11, 12, 25.5} {
		dst[0] = 1 // stale contents must not survive
		out := Frame(dst, wave, lead, tail, snr, floor)
		if len(out) != lead+len(wave)+tail || &out[0] != &dst[:1][0] {
			t.Fatalf("%d samples in new storage: want %d in dst's", len(out), lead+len(wave)+tail)
		}
		scale := complex(math.Sqrt(floor*FromDB(snr))/math.Sqrt(wave.Power()), 0)
		for i, v := range out {
			want := complex128(0)
			if i >= lead && i < lead+len(wave) {
				want = wave[i-lead] * scale
			}
			if v != want {
				t.Fatalf("%g dB, sample %d: %v, want %v", snr, i, v, want)
			}
		}
		if got := out[lead:][:len(wave)].Power(); math.Abs(got/(floor*FromDB(snr))-1) > 1e-12 {
			t.Errorf("%g dB: framed power %g, want %g", snr, got, floor*FromDB(snr))
		}
	}
	if n := testing.AllocsPerRun(10, func() { dst = Frame(dst, wave, lead, tail, 11, floor) }); n != 0 {
		t.Errorf("a warm Frame allocates %v times", n)
	}
	if grown := Frame(make(Samples, 0, 4), wave, lead, tail, 11, floor); len(grown) != lead+len(wave)+tail {
		t.Errorf("from a short buffer: %d samples, want %d", len(grown), lead+len(wave)+tail)
	}
}
