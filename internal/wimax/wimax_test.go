package wimax

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func TestConfigValidate(t *testing.T) {
	good := Config{CellID: 1, Segment: 0} // the paper's setting
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Config{{CellID: -1}, {CellID: 32}, {Segment: -1}, {Segment: 3}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestPreambleSymbolLength(t *testing.T) {
	p, err := PreambleSymbol(Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != SymbolLen {
		t.Fatalf("preamble %d samples, want %d", len(p), SymbolLen)
	}
	// ~101 µs at 11.4 MSPS, the paper quotes 100.8 µs.
	us := float64(SymbolLen) / SampleRate * 1e6
	if us < 95 || us > 106 {
		t.Errorf("preamble duration %.1f µs, want ~101", us)
	}
}

func TestPreambleSpectrum(t *testing.T) {
	p, err := PreambleSymbol(Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	freq := p[CPLen:].Clone()
	dsp.NewFFTPlan(FFTSize).Forward(freq)
	// Guard bands must be empty; occupied carriers every 3rd in the usable
	// band starting at the segment offset.
	occupied := 0
	for off := 0; off < FFTSize; off++ {
		carrier := off - FFTSize/2
		bin := carrier
		if bin < 0 {
			bin += FFTSize
		}
		mag := cmplx.Abs(freq[bin])
		inGuard := off < GuardBandCarriers || off >= FFTSize-GuardBandCarriers
		onSet := !inGuard && (off-GuardBandCarriers)%PreambleCarrierSpacing == 0 && carrier != 0
		switch {
		case inGuard && mag > 1e-6:
			t.Fatalf("guard carrier %d has energy %v", off, mag)
		case onSet && mag < 1e-6:
			t.Fatalf("carrier-set bin %d empty", off)
		case !inGuard && !onSet && mag > 1e-6:
			t.Fatalf("off-set carrier %d has energy %v", off, mag)
		}
		if mag > 1e-6 {
			occupied++
		}
	}
	// Segment 0's carrier set hits DC, which is punctured: 283 radiated.
	if occupied != PNLength-1 {
		t.Errorf("%d occupied carriers, want %d", occupied, PNLength-1)
	}
	// Segments 1 and 2 miss DC and radiate all 284.
	for seg := 1; seg <= 2; seg++ {
		p, err := PreambleSymbol(Config{CellID: 1, Segment: seg})
		if err != nil {
			t.Fatal(err)
		}
		f := p[CPLen:].Clone()
		dsp.NewFFTPlan(FFTSize).Forward(f)
		n := 0
		for _, v := range f {
			if cmplx.Abs(v) > 1e-6 {
				n++
			}
		}
		if n != PNLength {
			t.Errorf("segment %d: %d occupied carriers, want %d", seg, n, PNLength)
		}
	}
}

func TestPreambleCyclicPrefix(t *testing.T) {
	p, err := PreambleSymbol(Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < CPLen; i++ {
		d := p[i] - p[FFTSize+i]
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("CP not cyclic at %d", i)
		}
	}
}

func TestPreambleApproxThreefoldRepetition(t *testing.T) {
	// With every 3rd subcarrier occupied the useful symbol repeats ~3× (up
	// to a constant phase); correlate segments 341 samples apart.
	p, err := PreambleSymbol(Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	body := p[CPLen:]
	period := FFTSize / 3 // 341
	var corr, e1, e2 complex128
	for i := 0; i < period; i++ {
		a, b := body[i], body[i+period]
		corr += a * cmplx.Conj(b)
		e1 += a * cmplx.Conj(a)
		e2 += b * cmplx.Conj(b)
	}
	rho := cmplx.Abs(corr) / math.Sqrt(real(e1)*real(e2))
	if rho < 0.8 {
		t.Errorf("repetition correlation %.2f, want > 0.8", rho)
	}
}

func TestPNSequencesDifferAcrossCells(t *testing.T) {
	f := func(c1, c2, s1, s2 uint8) bool {
		cfg1 := Config{CellID: int(c1 % 32), Segment: int(s1 % 3)}
		cfg2 := Config{CellID: int(c2 % 32), Segment: int(s2 % 3)}
		a := pnSequence(cfg1.CellID, cfg1.Segment)
		b := pnSequence(cfg2.CellID, cfg2.Segment)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if cfg1 == cfg2 {
			return same
		}
		return !same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPNValuesAreBipolar(t *testing.T) {
	for _, v := range pnSequence(1, 0) {
		if v != 1 && v != -1 {
			t.Fatalf("PN value %v", v)
		}
	}
}

func TestDownlinkFrameStructure(t *testing.T) {
	frame, err := DownlinkFrame(Config{CellID: 1, Segment: 0}, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != FrameDurationSamples {
		t.Fatalf("frame %d samples, want %d (5 ms)", len(frame), FrameDurationSamples)
	}
	// Downlink burst has power; the tail (uplink gap) is silent.
	dl := frame[:21*SymbolLen]
	tail := frame[len(frame)-1000:]
	if dl.Power() < 0.5 {
		t.Errorf("downlink power %v too low", dl.Power())
	}
	if tail.Power() != 0 {
		t.Errorf("TDD gap not silent: %v", tail.Power())
	}
}

func TestDownlinkFrameValidation(t *testing.T) {
	if _, err := DownlinkFrame(Config{CellID: 99}, 1, 0); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := DownlinkFrame(Config{CellID: 1}, -1, 0); err == nil {
		t.Error("negative symbols accepted")
	}
	if _, err := DownlinkFrame(Config{CellID: 1}, 100000, 0); err == nil {
		t.Error("overlong frame accepted")
	}
}

func TestDownlinkFrameReproducible(t *testing.T) {
	a, _ := DownlinkFrame(Config{CellID: 1}, 5, 7)
	b, _ := DownlinkFrame(Config{CellID: 1}, 5, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different frames")
		}
	}
}

func TestPreamblePowerNormalized(t *testing.T) {
	p, err := PreambleSymbol(Config{CellID: 1, Segment: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pw := p.Power(); math.Abs(pw-1) > 0.15 {
		t.Errorf("preamble power %v, want ~1", pw)
	}
}

func TestCodePeriod(t *testing.T) {
	if PNLength != 284 {
		t.Errorf("code period %d, want 284 (paper §5)", PNLength)
	}
	// 284 samples at 11.4 MSPS ≈ 25 µs, as the paper states.
	us := float64(PNLength) / SampleRate * 1e6
	if us < 24 || us > 26 {
		t.Errorf("code duration %.1f µs, want ~25", us)
	}
}
