package wifi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRateTable(t *testing.T) {
	// Spot-check Table 78 parameters.
	cases := []struct {
		r          Rate
		mbps, dbps int
		c          Constellation
	}{
		{Rate6, 6, 24, BPSK},
		{Rate9, 9, 36, BPSK},
		{Rate12, 12, 48, QPSK},
		{Rate18, 18, 72, QPSK},
		{Rate24, 24, 96, QAM16},
		{Rate36, 36, 144, QAM16},
		{Rate48, 48, 192, QAM64},
		{Rate54, 54, 216, QAM64},
	}
	for _, c := range cases {
		if c.r.Mbps() != c.mbps || c.r.BitsPerSymbol() != c.dbps || c.r.Constellation() != c.c {
			t.Errorf("%v: mbps=%d dbps=%d const=%v", c.r, c.r.Mbps(), c.r.BitsPerSymbol(), c.r.Constellation())
		}
		if c.r.CodedBitsPerSymbol() != rateTable[c.r].bpsc*NumDataCarriers {
			t.Errorf("%v: CBPS inconsistent", c.r)
		}
	}
}

func TestSignalBitsRoundTrip(t *testing.T) {
	for _, r := range AllRates {
		got, err := RateFromSignalBits(r.SignalBits())
		if err != nil || got != r {
			t.Errorf("rate %v: round-trip gave %v, %v", r, got, err)
		}
	}
	if _, err := RateFromSignalBits(0b0000); err == nil {
		t.Error("invalid signal bits accepted")
	}
}

func TestNumDataSymbols(t *testing.T) {
	// 100-byte PSDU at 24 Mbps: (16+800+6)/96 = 8.56 -> 9 symbols.
	if n := NumDataSymbols(Rate24, 100); n != 9 {
		t.Errorf("NumDataSymbols = %d, want 9", n)
	}
	// Frame duration: 320 preamble + 80 SIGNAL + 9*80 = 1120 samples.
	if d := FrameDuration(Rate24, 100); d != 1120 {
		t.Errorf("FrameDuration = %d, want 1120", d)
	}
}

func TestScramblerStandardSequence(t *testing.T) {
	// §17.3.5.4: with all-ones seed, the first 16 output bits are
	// 0000 1110 1111 0010.
	s := NewScrambler(0x7F)
	want := []uint8{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0}
	for i, w := range want {
		if got := s.NextBit(); got != w {
			t.Fatalf("scrambler bit %d = %d, want %d", i, got, w)
		}
	}
}

func TestScramblerInvolution(t *testing.T) {
	f := func(seed uint8, data []uint8) bool {
		seed |= 1 // nonzero
		for i := range data {
			data[i] &= 1
		}
		orig := append([]uint8(nil), data...)
		NewScrambler(seed).Process(data)
		NewScrambler(seed).Process(data)
		return bytes.Equal(orig, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecoverSeedContinuesSequence(t *testing.T) {
	f := func(seed uint8) bool {
		seed &= 0x7F
		if seed == 0 {
			return true
		}
		tx := NewScrambler(seed)
		var first7 []uint8
		for i := 0; i < 7; i++ {
			first7 = append(first7, tx.NextBit())
		}
		rx := NewScrambler(RecoverSeed(first7))
		for i := 0; i < 100; i++ {
			if rx.NextBit() != tx.NextBit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvEncodeKnownVector(t *testing.T) {
	// All-zero input yields all-zero output.
	out := convEncodeInto(nil, make([]uint8, 8), Punct1_2)
	for _, b := range out {
		if b != 0 {
			t.Fatal("zero input produced nonzero coded bit")
		}
	}
	if len(out) != 16 {
		t.Fatalf("rate-1/2 coded %d bits from 8", len(out))
	}
	// Impulse response: first input 1 gives A=parity(1&133)=1, B=parity(1&171)=1.
	out = convEncodeInto(nil, []uint8{1}, Punct1_2)
	if out[0] != 1 || out[1] != 1 {
		t.Errorf("impulse response start = %v", out)
	}
}

func TestPunctureLengths(t *testing.T) {
	in := make([]uint8, 12)
	if n := len(convEncodeInto(nil, in, Punct1_2)); n != 24 {
		t.Errorf("1/2: %d", n)
	}
	if n := len(convEncodeInto(nil, in, Punct2_3)); n != 18 {
		t.Errorf("2/3: %d", n)
	}
	if n := len(convEncodeInto(nil, in, Punct3_4)); n != 16 {
		t.Errorf("3/4: %d", n)
	}
}

func TestViterbiRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8, pSel uint8) bool {
		punct := []Puncture{Punct1_2, Punct2_3, Punct3_4}[pSel%3]
		// 3/4 and 2/3 need lengths matching the puncture period.
		nbits := 24 + int(n)%200
		nbits -= nbits % 12
		bits := make([]uint8, nbits)
		for i := range bits[:nbits-TailBits] {
			bits[i] = uint8(rng.Intn(2))
		}
		coded := convEncodeInto(nil, bits, punct)
		dec, err := viterbiDecode(coded, punct, nbits, true)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bits := make([]uint8, 120)
	for i := range bits[:114] {
		bits[i] = uint8(rng.Intn(2))
	}
	coded := convEncodeInto(nil, bits, Punct1_2)
	// Flip 5 well-separated coded bits; the free-distance-10 code at rate
	// 1/2 corrects isolated errors easily.
	for _, pos := range []int{3, 50, 99, 150, 200} {
		coded[pos] ^= 1
	}
	dec, err := viterbiDecode(coded, Punct1_2, 120, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bits) {
		t.Error("Viterbi failed to correct 5 isolated hard errors")
	}
}

func TestViterbiShortInput(t *testing.T) {
	if _, err := viterbiDecode([]uint8{1, 0}, Punct1_2, 24, true); err == nil {
		t.Error("insufficient coded bits accepted")
	}
}

func TestInterleaverRoundTripAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, r := range AllRates {
		bits := make([]uint8, r.CodedBitsPerSymbol())
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		il := make([]uint8, len(bits))
		interleaveInto(il, bits, r)
		got := make([]uint8, len(bits))
		deinterleaveInto(got, il, r)
		if !bytes.Equal(got, bits) {
			t.Errorf("%v: interleave round-trip failed", r)
		}
	}
}

func TestInterleaverIsPermutation(t *testing.T) {
	for _, r := range AllRates {
		cbps := r.CodedBitsPerSymbol()
		bpsc := rateTable[r].bpsc
		seen := make([]bool, cbps)
		for k := 0; k < cbps; k++ {
			j := interleaveIndex(k, cbps, bpsc)
			if j < 0 || j >= cbps || seen[j] {
				t.Fatalf("%v: index %d -> %d not a permutation", r, k, j)
			}
			seen[j] = true
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on different subcarriers (the point of
	// the first permutation).
	r := Rate54
	cbps, bpsc := r.CodedBitsPerSymbol(), rateTable[r].bpsc
	for k := 0; k+1 < cbps; k++ {
		c1 := interleaveIndex(k, cbps, bpsc) / bpsc
		c2 := interleaveIndex(k+1, cbps, bpsc) / bpsc
		if c1 == c2 {
			t.Fatalf("coded bits %d,%d map to same subcarrier %d", k, k+1, c1)
		}
	}
}

func TestConstellationUnitPower(t *testing.T) {
	for _, c := range []Constellation{BPSK, QPSK, QAM16, QAM64} {
		n := c.Bits()
		var sum float64
		count := 1 << n
		bits := make([]uint8, n)
		for v := 0; v < count; v++ {
			for i := 0; i < n; i++ {
				bits[i] = uint8((v >> i) & 1)
			}
			p := c.Map(bits)
			sum += real(p)*real(p) + imag(p)*imag(p)
		}
		avg := sum / float64(count)
		if math.Abs(avg-1) > 1e-9 {
			t.Errorf("%v average power %v, want 1", c, avg)
		}
	}
}

// TestMapTableMatchesGrayFormula pins every mapTable entry == to the
// Gray-coded formula of Figure 116 of the standard, each axis's level times
// K_MOD, for all four constellations and every bit group.
func TestMapTableMatchesGrayFormula(t *testing.T) {
	gray := map[int][]float64{ // levels indexed by the axis's bit group
		1: {-1, 1},
		2: {0b00: -3, 0b01: -1, 0b11: 1, 0b10: 3},
		3: {0b000: -7, 0b001: -5, 0b011: -3, 0b010: -1, 0b110: 1, 0b111: 3, 0b101: 5, 0b100: 7},
	}
	for _, c := range []Constellation{BPSK, QPSK, QAM16, QAM64} {
		n, k := c.Bits(), c.kmod()
		bits := make([]uint8, n)
		for v := 0; v < 1<<n; v++ {
			for i := range bits {
				bits[i] = uint8(v >> (n - 1 - i) & 1)
			}
			var want complex128
			if n == 1 {
				want = complex(gray[1][v]*k, 0)
			} else {
				h := n / 2
				want = complex(gray[h][v>>h]*k, gray[h][v&(1<<h-1)]*k)
			}
			if got := c.Map(bits); got != want {
				t.Errorf("%v bits %v: Map = %v, want %v", c, bits, got, want)
			}
		}
	}
}

// TestUnknownConstellation pins the out-of-table behavior: Map and Demap
// panic, DemapSoft returns dst unchanged.
func TestUnknownConstellation(t *testing.T) {
	c := Constellation(4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s of %v did not panic", name, c)
			}
		}()
		f()
	}
	mustPanic("Map", func() { c.Map(make([]uint8, 6)) })
	mustPanic("Demap", func() { c.Demap(1, nil) })
	dst := []LLR{1, 2}
	if got := c.DemapSoft(1, dst); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("DemapSoft of %v = %v, want dst unchanged", c, got)
	}
}

func TestMapDemapRoundTripProperty(t *testing.T) {
	f := func(v uint8, cSel uint8) bool {
		c := []Constellation{BPSK, QPSK, QAM16, QAM64}[cSel%4]
		n := c.Bits()
		bits := make([]uint8, n)
		for i := 0; i < n; i++ {
			bits[i] = (v >> i) & 1
		}
		got := c.Demap(c.Map(bits), nil)
		return bytes.Equal(got, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPreambleStructure(t *testing.T) {
	sp := ShortPreamble()
	if len(sp) != ShortPreambleLen {
		t.Fatalf("short preamble %d samples", len(sp))
	}
	// Periodicity 16.
	for i := 0; i+ShortRepLen < len(sp); i++ {
		if d := sp[i] - sp[i+ShortRepLen]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("short preamble not 16-periodic at %d", i)
		}
	}
	lp := preambleCached[ShortPreambleLen:]
	if len(lp) != LongPreambleLen {
		t.Fatalf("long preamble %d samples", len(lp))
	}
	// GI2 is a cyclic extension: lp[0:32] == lp[64:96] (end of LTS).
	for i := 0; i < 32; i++ {
		if d := lp[i] - lp[i+FFTSize]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("GI2 not cyclic at %d", i)
		}
	}
	// Two identical LTS symbols.
	for i := 32; i < 96; i++ {
		if d := lp[i] - lp[i+FFTSize]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("LTS repetitions differ at %d", i)
		}
	}
	if len(preambleCached) != 320 {
		t.Fatalf("full preamble %d samples, want 320 (16us)", len(preambleCached))
	}
}

func TestPreamblePower(t *testing.T) {
	// 52 of 64 carriers occupied -> time-domain power 52/64.
	want := 52.0 / 64
	if p := LongTrainingSymbol().Power(); math.Abs(p-want) > 1e-9 {
		t.Errorf("LTS power %v, want %v", p, want)
	}
	if p := ShortPreamble().Power(); math.Abs(p-want) > 1e-9 {
		t.Errorf("STS power %v, want %v", p, want)
	}
}

func TestPilotPolarityStartsCorrect(t *testing.T) {
	// Standard sequence begins 1,1,1,1,-1,-1,-1,1.
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1}
	for i, w := range want {
		if PilotPolarity(i) != w {
			t.Errorf("p_%d = %v, want %v", i, PilotPolarity(i), w)
		}
	}
	if PilotPolarity(127) != PilotPolarity(0) {
		t.Error("pilot polarity must cycle at 127")
	}
}

func TestSymbolRoundTripFlatChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h Channel // ideal unit channel
	for k := -26; k <= 26; k++ {
		if k != 0 {
			h[carrierToBin(k)] = 1
		}
	}
	var freq [FFTSize]complex128
	pts := make([]complex128, NumDataCarriers)
	sym := make([]complex128, SymbolLen)
	for _, r := range AllRates {
		bits := make([]uint8, r.CodedBitsPerSymbol())
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		mapSymbolBitsInto(pts, bits, r)
		assembleSymbolInto(sym, &freq, pts, 3)
		disassembleSymbolInto(pts, &freq, sym, &h, 3)
		got := demapSymbolPointsInto(nil, pts, r)
		if !bytes.Equal(got, bits) {
			t.Errorf("%v: OFDM symbol round-trip failed", r)
		}
	}
}

func TestSignalFieldRoundTrip(t *testing.T) {
	var bits [24]uint8
	for _, r := range AllRates {
		for _, l := range []int{1, 100, 1470, 4095} {
			signalFieldInto(&bits, r, l)
			rr, ll, err := parseSignalField(bits[:])
			if err != nil || rr != r || ll != l {
				t.Errorf("SIGNAL(%v,%d) -> %v,%d,%v", r, l, rr, ll, err)
			}
		}
	}
	// Corrupt parity.
	signalFieldInto(&bits, Rate24, 100)
	bits[0] ^= 1
	if _, _, err := parseSignalField(bits[:]); err == nil {
		t.Error("parity error not detected")
	}
}

func TestModulateValidation(t *testing.T) {
	if _, err := Modulate(nil, TxConfig{Rate: Rate6}); err == nil {
		t.Error("empty PSDU accepted")
	}
	if _, err := Modulate(make([]byte, MaxPSDU+1), TxConfig{Rate: Rate6}); err == nil {
		t.Error("oversized PSDU accepted")
	}
	if _, err := Modulate([]byte{1}, TxConfig{Rate: Rate(99)}); err == nil {
		t.Error("bogus rate accepted")
	}
}

// TestTxFrameValidation pins the codec's own checks, which Modulate's
// callers never reach: a bad rate or PSDU length leaves dst untouched.
func TestTxFrameValidation(t *testing.T) {
	var c TxCodec
	dst := make([]complex128, 3, 8)
	for _, tc := range []struct {
		psdu []byte
		rate Rate
	}{{[]byte{1}, Rate(99)}, {nil, Rate6}, {make([]byte, MaxPSDU+1), Rate6}} {
		got, err := c.TxFrame(dst, tc.psdu, TxConfig{Rate: tc.rate})
		if err == nil || len(got) != 3 {
			t.Errorf("rate %v, %d bytes: accepted (len %d, err %v)", tc.rate, len(tc.psdu), len(got), err)
		}
	}
}

// TestStrings pins the names of rates, puncturings and constellations,
// including the fallback for values outside their tables.
func TestStrings(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{Rate54.String(), "54Mbps"}, {Rate(8).String(), "Rate(8)"},
		{Punct1_2.String(), "1/2"}, {Punct2_3.String(), "2/3"}, {Punct3_4.String(), "3/4"},
		{Puncture(3).String(), "Puncture(3)"},
		{BPSK.String(), "BPSK"}, {QPSK.String(), "QPSK"}, {QAM16.String(), "16-QAM"},
		{QAM64.String(), "64-QAM"}, {Constellation(4).String(), "Constellation(4)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestModemLoopbackAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range AllRates {
		psdu := make([]byte, 200)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x2A})
		if err != nil {
			t.Fatal(err)
		}
		if len(tx) != FrameDuration(r, len(psdu)) {
			t.Errorf("%v: waveform %d samples, want %d", r, len(tx), FrameDuration(r, len(psdu)))
		}
		res, err := Demodulate(tx, 0, len(tx))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if res.Rate != r || res.Length != len(psdu) {
			t.Errorf("%v: SIGNAL decoded as %v/%d", r, res.Rate, res.Length)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%v: PSDU corrupted in loopback", r)
		}
		if res.LTSIndex != ShortPreambleLen+32 {
			t.Errorf("%v: sync at %d, want %d", r, res.LTSIndex, ShortPreambleLen+32)
		}
	}
}

func TestModemLoopbackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(n uint16, rSel, seed uint8) bool {
		r := AllRates[rSel%8]
		psdu := make([]byte, 1+int(n)%512)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: seed})
		if err != nil {
			return false
		}
		res, err := Demodulate(tx, 0, len(tx))
		if err != nil {
			return false
		}
		return bytes.Equal(res.PSDU, psdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDemodulateNoiseOnlyFails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := make([]complex128, 2000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
	}
	if _, err := Demodulate(noise, 0, len(noise)); err == nil {
		t.Error("demodulated pure noise")
	}
}

func TestFCS(t *testing.T) {
	data := []byte("hello mpdu")
	framed := AppendFCS(data)
	if len(framed) != len(data)+4 {
		t.Fatal("FCS length wrong")
	}
	got, ok := CheckFCS(framed)
	if !ok || !bytes.Equal(got, data) {
		t.Error("FCS round-trip failed")
	}
	framed[2] ^= 0x40
	if _, ok := CheckFCS(framed); ok {
		t.Error("corrupted frame passed FCS")
	}
	if _, ok := CheckFCS([]byte{1, 2}); ok {
		t.Error("short frame passed FCS")
	}
}

func TestBitsBytesRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		got := make([]byte, len(data))
		bitsToBytesInto(got, bytesToBitsInto(nil, data))
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitsLSBFirst(t *testing.T) {
	bits := bytesToBitsInto(nil, []byte{0x01, 0x80})
	if bits[0] != 1 || bits[7] != 0 || bits[8] != 0 || bits[15] != 1 {
		t.Errorf("bit order wrong: %v", bits)
	}
}

func TestPseudoFrames(t *testing.T) {
	if n := len(ModulatePseudoFrame(PseudoShort)); n != ShortRepLen {
		t.Errorf("pseudo short = %d samples", n)
	}
	if n := len(ModulatePseudoFrame(PseudoLong)); n != FFTSize {
		t.Errorf("pseudo long = %d samples", n)
	}
}
