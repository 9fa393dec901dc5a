package defense

import (
	"fmt"
	"testing"

	"repro/internal/wifi"
)

func TestDiagnoseAggregates(t *testing.T) {
	cases := []struct {
		pdr, rssi, busy float64
		want            Diagnosis
	}{
		{1.0, 34, 0, VerdictClean},
		{0.0, 34, 1.0, VerdictContinuousJamming},
		{0.0, 34, 0.1, VerdictReactiveJamming},
		{0.1, 5, 0.0, VerdictWeakSignal},
		// Threshold edges: each comparison is inclusive.
		{0.35, 34, 0.8, VerdictContinuousJamming},
		{0.36, 34, 1, VerdictClean},
		{0.35, 15, 0.79, VerdictReactiveJamming},
		{0.35, 14.9, 0, VerdictWeakSignal},
	}
	for _, c := range cases {
		if got := DiagnoseAggregates(c.pdr, c.rssi, c.busy); got != c.want {
			t.Errorf("Diagnose(%v,%v,%v) = %v, want %v", c.pdr, c.rssi, c.busy, got, c.want)
		}
	}
}

func TestDiagnosisStrings(t *testing.T) {
	for d, want := range map[Diagnosis]string{
		VerdictClean: "clean", VerdictWeakSignal: "weak-signal",
		VerdictContinuousJamming: "continuous-jamming",
		VerdictReactiveJamming:   "reactive-jamming",
		Diagnosis(9):             "Diagnosis(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestIJamValidation(t *testing.T) {
	if _, err := IJamExchange(nil, IJamConfig{Rate: wifi.Rate12}); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := IJamExchange([]byte{1}, IJamConfig{Rate: wifi.Rate(99)}); err == nil {
		t.Error("bogus rate accepted")
	}
	if _, err := IJamStudy([]float64{0}, 0, IJamConfig{Rate: wifi.Rate12}); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestIJamLegitAlwaysRecovers(t *testing.T) {
	cfg := IJamConfig{Rate: wifi.Rate54, JamToSignalDB: 0, NoiseSNRdB: 30, Seed: 1}
	for trial := 0; trial < 5; trial++ {
		cfg.Seed = int64(trial) * 77
		psdu := []byte(fmt.Sprintf("the secret payload %d", trial))
		res, err := IJamExchange(psdu, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.LegitOK {
			t.Errorf("trial %d: intended receiver failed", trial)
		}
	}
}

func TestIJamDeniesStrongEnergyEavesdropper(t *testing.T) {
	// With the complementary per-sample masking, the eavesdropper's
	// per-sample energy test stays far from reliable at the calibrated
	// 0 dB ratio, corrupting its reconstruction, while the legit receiver
	// always recovers.
	pts, err := IJamStudy([]float64{0, 15}, 6,
		IJamConfig{Rate: wifi.Rate54, NoiseSNRdB: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.LegitRate < 1 {
			t.Errorf("jam %v dB: legit rate %v, want 1.0", p.JamToSignalDB, p.LegitRate)
		}
	}
	// Calibrated (0 dB) jamming: the per-sample energy test is near chance
	// (≥25% wrong picks) and the eavesdropper's 64-QAM reconstruction dies.
	if pts[0].EvePickErrorRate < 0.2 {
		t.Errorf("pick-error at 0 dB = %v, want near-chance", pts[0].EvePickErrorRate)
	}
	if pts[0].EveRate > 0 {
		t.Error("eavesdropper recovered the payload under calibrated jamming")
	}
	// Over-loud (+15 dB) jamming leaks the mask: the energy test becomes
	// accurate and the eavesdropper recovers — the calibration lesson of
	// the original iJam work.
	if pts[1].EvePickErrorRate >= pts[0].EvePickErrorRate {
		t.Errorf("pick-error should drop at loud jamming: %v vs %v",
			pts[1].EvePickErrorRate, pts[0].EvePickErrorRate)
	}
	if pts[1].EveRate == 0 {
		t.Error("over-loud jamming should leak the mask (eavesdropper wins)")
	}
}
