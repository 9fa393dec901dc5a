package energy

import (
	"math/rand"
	"testing"
)

// A differentiator with both edges disabled skips its comparisons
// (SkipBlock) and must keep the history a later arming reads: after k
// skipped blocks and an arming, its levels and state equal those of a
// differentiator that ran every block. The block lengths straddle a sign
// word (63–65) and the 96-sample tail SkipBlock replays (95–97).
func TestSkipThenArmMatchesAlwaysOn(t *testing.T) {
	const highDB, lowDB = 10, 10
	stream := burstStream(rand.New(rand.NewSource(0x5C1B)), 3200)
	iPlane, qPlane := splitPlanes(stream)
	// Quantize(q.Complex()) == q, so SkipBlock reads the codes of the planes.
	rx := make([]complex128, len(stream))
	for k, q := range stream {
		rx[k] = q.Complex()
	}
	for _, blockLen := range []int{1, 63, 64, 65, 95, 96, 97, 150, 500} {
		for _, skipped := range []int{0, 1, 2, 5} {
			ref, blk := New(), New()
			configure(t, ref, highDB, lowDB)
			if blk.CanFire() {
				t.Fatal("a differentiator with both edges disabled reports it can fire")
			}
			fired := false
			for b, pos := 0, 0; pos < len(stream); b, pos = b+1, pos+blockLen {
				end := min(pos+blockLen, len(stream))
				words := (end - pos + 63) / 64
				wantH, wantL := make([]uint64, words), make([]uint64, words)
				ref.ProcessBits(iPlane[pos:end], qPlane[pos:end], wantH, wantL)
				if b == skipped {
					configure(t, blk, highDB, lowDB)
				}
				if b < skipped {
					blk.SkipBlock(rx[pos:end])
				} else {
					gotH, gotL := make([]uint64, words), make([]uint64, words)
					blk.ProcessBits(iPlane[pos:end], qPlane[pos:end], gotH, gotL)
					for w := range wantH {
						if gotH[w] != wantH[w] || gotL[w] != wantL[w] {
							t.Fatalf("blockLen %d, %d skipped: block %d word %d levels (%x,%x), want (%x,%x)",
								blockLen, skipped, b, w, gotH[w], gotL[w], wantH[w], wantL[w])
						}
						fired = fired || wantH[w]|wantL[w] != 0
					}
				}
				if blk.window != ref.window || blk.sums != ref.sums || blk.sum != ref.sum ||
					blk.wpos != ref.wpos || blk.spos != ref.spos || blk.seen != ref.seen {
					t.Fatalf("blockLen %d, %d skipped: history after block %d diverges", blockLen, skipped, b)
				}
			}
			if *blk != *ref {
				t.Fatalf("blockLen %d, %d skipped: end state diverges", blockLen, skipped)
			}
			if !fired {
				t.Fatalf("blockLen %d, %d skipped: the armed differentiator never fired", blockLen, skipped)
			}
		}
	}
}

// Disabling both edges is what makes a differentiator unable to fire.
func TestCanFire(t *testing.T) {
	d := New()
	for _, db := range [][2]float64{{10, 0}, {0, 10}, {10, 10}} {
		configure(t, d, db[0], db[1])
		if !d.CanFire() {
			t.Errorf("high %v dB, low %v dB armed: CanFire false", db[0], db[1])
		}
		d.DisableHigh()
		d.DisableLow()
		if d.CanFire() {
			t.Errorf("high %v dB, low %v dB disabled: CanFire true", db[0], db[1])
		}
	}
}
