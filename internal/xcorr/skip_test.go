package xcorr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// A correlator that cannot fire skips its kernel (SkipPacked) and must keep
// the history a later arming reads: after k skipped blocks and an arming,
// its levels and state equal those of a correlator that ran every block.

// skipBanks returns the synthetic banks the core's parity fuzz loads.
func skipBanks() (i, q []fixed.Coeff3) {
	i = make([]fixed.Coeff3, Length)
	q = make([]fixed.Coeff3, Length)
	for k := range i {
		i[k] = fixed.Coeff3(k%7 - 3)
		q[k] = fixed.Coeff3((k+3)%7 - 3)
	}
	return i, q
}

func TestSkipThenArmMatchesAlwaysOn(t *testing.T) {
	const armed = 900
	ci, cq := skipBanks()
	rng := rand.New(rand.NewSource(0x5C1B))
	stream := make([]fixed.IQ, 1400)
	for n := range stream {
		stream[n] = fixed.IQ{I: int16(rng.Intn(65536) - 32768), Q: int16(rng.Intn(65536) - 32768)}
	}
	for _, blockLen := range []int{1, 63, 64, 65, 95, 96, 97, 130} {
		for _, skipped := range []int{0, 1, 2, 5} {
			ref, blk := New(), New()
			for _, c := range []*Correlator{ref, blk} {
				if err := c.SetCoefficients(ci, cq); err != nil {
					t.Fatal(err)
				}
			}
			ref.SetThreshold(armed)
			if blk.CanFire() {
				t.Fatal("correlator at threshold MaxUint32 reports it can fire")
			}
			fired := false
			for b, pos := 0, 0; pos < len(stream); b, pos = b+1, pos+blockLen {
				chunk := stream[pos:min(pos+blockLen, len(stream))]
				signI, signQ := packSigns(chunk)
				want := make([]uint64, (len(chunk)+63)/64)
				ref.ProcessPacked(signI, signQ, len(chunk), want)
				if b == skipped {
					blk.SetThreshold(armed)
				}
				if b < skipped {
					blk.SkipPacked(signI, signQ, len(chunk))
				} else {
					got := make([]uint64, len(want))
					blk.ProcessPacked(signI, signQ, len(chunk), got)
					for w := range want {
						if got[w] != want[w] {
							t.Fatalf("blockLen %d, %d skipped: block %d level word %d = %x, want %x",
								blockLen, skipped, b, w, got[w], want[w])
						}
						fired = fired || want[w] != 0
					}
				}
				if blk.signI != ref.signI || blk.signQ != ref.signQ ||
					blk.valid != ref.valid || blk.warm != ref.warm {
					t.Fatalf("blockLen %d, %d skipped: history after block %d diverges: %+v vs %+v",
						blockLen, skipped, b, *blk, *ref)
				}
			}
			if *blk != *ref {
				t.Fatalf("blockLen %d, %d skipped: end state %+v, want %+v", blockLen, skipped, *blk, *ref)
			}
			if !fired {
				t.Fatalf("blockLen %d, %d skipped: the armed correlator never fired", blockLen, skipped)
			}
		}
	}
}

// CanFire is false exactly when the threshold exceeds the metric bound
// 2·(Σ|cI| + Σ|cQ|)², and no stream drives the metric past that bound.
func TestCanFireBound(t *testing.T) {
	c := New()
	for _, tc := range []struct {
		threshold uint32
		want      bool
	}{{math.MaxUint32, false}, {1, false}, {0, true}} {
		c.SetThreshold(tc.threshold)
		if got := c.CanFire(); got != tc.want {
			t.Errorf("all-zero banks, threshold %d: CanFire %v, want %v", tc.threshold, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(7))
	full := make([]fixed.Coeff3, Length)
	for k := range full {
		full[k] = -4
	}
	ci, cq := skipBanks()
	for _, banks := range [][2][]fixed.Coeff3{{ci, cq}, {full, full}, {full, cq}} {
		if err := c.SetCoefficients(banks[0], banks[1]); err != nil {
			t.Fatal(err)
		}
		b := uint64(c.bankI.base + c.bankQ.base)
		bound := 2 * b * b
		c.SetThreshold(uint32(bound))
		if !c.CanFire() {
			t.Errorf("threshold at the bound %d: CanFire false", bound)
		}
		c.SetThreshold(uint32(bound + 1))
		if c.CanFire() {
			t.Errorf("threshold above the bound %d: CanFire true", bound)
		}
		c.Reset()
		for n := 0; n < 4096; n++ {
			s := fixed.IQ{I: int16(rng.Intn(65536) - 32768), Q: int16(rng.Intn(65536) - 32768)}
			if n%3 == 0 {
				s = fixed.IQ{I: -1, Q: -1}
			}
			if m, _ := c.Process(s); uint64(m) > bound {
				t.Fatalf("metric %d exceeds the bound %d", m, bound)
			}
		}
	}
}
