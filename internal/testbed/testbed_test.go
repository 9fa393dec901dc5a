package testbed

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

func TestTable1Values(t *testing.T) {
	n := New()
	// Spot checks straight from the paper's Table 1.
	cases := []struct {
		from, to int
		want     float64
	}{
		{PortAP, PortClient, -51.0},
		{PortAP, PortScope, -25.2},
		{PortAP, PortJammerTX, -38.4},
		{PortAP, PortJammerRX, -39.3},
		{PortClient, PortScope, -31.7},
		{PortJammerTX, PortAP, -38.4},
		{PortJammerRX, PortAP, -39.2},
		{PortScope, PortJammerRX, -19.9},
	}
	for _, c := range cases {
		got, err := n.InsertionLossDB(c.from, c.to)
		if err != nil || got != c.want {
			t.Errorf("loss(%d->%d) = %v, %v; want %v", c.from, c.to, got, err, c.want)
		}
	}
}

func TestReciprocityWithinMeasurementTolerance(t *testing.T) {
	// The measured network is passive, so losses are reciprocal up to VNA
	// measurement error (the paper's table differs by ≤0.1 dB).
	n := New()
	for a := 1; a <= NumPorts; a++ {
		for b := a + 1; b <= NumPorts; b++ {
			ab, err1 := n.InsertionLossDB(a, b)
			ba, err2 := n.InsertionLossDB(b, a)
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("asymmetric isolation between %d and %d", a, b)
				continue
			}
			if err1 != nil {
				continue
			}
			if math.Abs(ab-ba) > 0.15 {
				t.Errorf("loss(%d,%d)=%v but loss(%d,%d)=%v", a, b, ab, b, a, ba)
			}
		}
	}
}

func TestIsolatedAndInvalidPairs(t *testing.T) {
	n := New()
	if _, err := n.InsertionLossDB(PortJammerTX, PortJammerRX); err == nil {
		t.Error("jammer TX->RX should be isolated (unmeasured in Table 1)")
	}
	if _, err := n.InsertionLossDB(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := n.InsertionLossDB(0, 3); err == nil {
		t.Error("port 0 accepted")
	}
	if _, err := n.InsertionLossDB(1, 6); err == nil {
		t.Error("port 6 accepted")
	}
	if g := n.PathGain(PortJammerTX, PortJammerRX); g != 0 {
		t.Errorf("isolated path gain %v, want 0", g)
	}
}

func TestPathGainMatchesLoss(t *testing.T) {
	n := New()
	g := n.PathGain(PortAP, PortClient)
	want := dsp.AmplitudeFromDB(-51)
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("PathGain = %v, want %v", g, want)
	}
}

func TestVariableAttenuatorOnPort4(t *testing.T) {
	n := New()
	base := n.PathGain(PortJammerTX, PortAP)
	if err := n.SetVariableAttenuator(20); err != nil {
		t.Fatal(err)
	}
	if n.variableAtt != 20 {
		t.Error("variableAtt")
	}
	got := n.PathGain(PortJammerTX, PortAP)
	if math.Abs(got-base/10) > 1e-12 {
		t.Errorf("20 dB pad: gain %v, want %v", got, base/10)
	}
	// Paths not involving port 4 are unaffected.
	if n.PathGain(PortAP, PortClient) != dsp.AmplitudeFromDB(-51) {
		t.Error("variable attenuator leaked into AP-client path")
	}
	if err := n.SetVariableAttenuator(-1); err == nil {
		t.Error("negative attenuation accepted")
	}
}

func TestMeasureTable(t *testing.T) {
	n := New()
	tab := n.MeasureTable()
	if !math.IsNaN(tab[0][0]) {
		t.Error("diagonal should be NaN")
	}
	if tab[0][1] != -51.0 {
		t.Errorf("tab[0][1] = %v", tab[0][1])
	}
	if !math.IsNaN(tab[3][4]) {
		t.Error("isolated 4->5 should be NaN")
	}
}
