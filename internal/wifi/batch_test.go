package wifi

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// Differential suite for the frame codecs. TxFrame is pinned against an
// independent per-symbol composition of the package's coding steps (the
// packed Viterbi decoder has its own suite in viterbi_test.go, the soft
// back-end its own in soft_test.go). All comparisons are exact (==), not
// tolerance-based — the codecs must be bit-identical, or the seeded
// experiment figures would drift.

// legacyModulate rebuilds Modulate's output symbol by symbol from the
// per-symbol steps, each into fresh buffers, the way the pre-batch
// implementation composed them.
func legacyModulate(t *testing.T, psdu []byte, cfg TxConfig) dsp.Samples {
	t.Helper()
	seed := cfg.ScramblerSeed & 0x7F
	if seed == 0 {
		seed = 0x5D
	}
	encode := func(bits []uint8, r Rate, firstSymIndex int) dsp.Samples {
		coded := convEncodeInto(nil, bits, r.Puncture())
		cbps := r.CodedBitsPerSymbol()
		var out dsp.Samples
		for s := 0; s < len(coded)/cbps; s++ {
			il := make([]uint8, cbps)
			interleaveInto(il, coded[s*cbps:(s+1)*cbps], r)
			pts := make([]complex128, NumDataCarriers)
			mapSymbolBitsInto(pts, il, r)
			var freq [FFTSize]complex128
			sym := make(dsp.Samples, SymbolLen)
			assembleSymbolInto(sym, &freq, pts, firstSymIndex+s)
			out = append(out, sym...)
		}
		return out
	}
	var sig [24]uint8
	signalFieldInto(&sig, cfg.Rate, len(psdu))
	out := Preamble()
	out = append(out, encode(sig[:], Rate6, 0)...)
	nbits := NumDataSymbols(cfg.Rate, len(psdu)) * cfg.Rate.BitsPerSymbol()
	bits := make([]uint8, ServiceBits, nbits)
	bits = bytesToBitsInto(bits, psdu)
	bits = append(bits, make([]uint8, nbits-len(bits))...)
	NewScrambler(seed).Process(bits)
	for i := 0; i < TailBits; i++ {
		bits[ServiceBits+8*len(psdu)+i] = 0
	}
	return append(out, encode(bits, cfg.Rate, 1)...)
}

func TestTxFrameMatchesLegacyCompositionAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, r := range AllRates {
		psdu := make([]byte, 1+rng.Intn(400))
		rng.Read(psdu)
		cfg := TxConfig{Rate: r, ScramblerSeed: uint8(1 + rng.Intn(127))}
		want := legacyModulate(t, psdu, cfg)

		got, err := Modulate(psdu, cfg)
		if err != nil {
			t.Fatalf("%v: Modulate: %v", r, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: length %d, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: sample %d = %v, want %v", r, i, got[i], want[i])
			}
		}

		var codec TxCodec
		batch, err := codec.TxFrame(nil, psdu, cfg)
		if err != nil {
			t.Fatalf("%v: TxFrame: %v", r, err)
		}
		for i := range batch {
			if batch[i] != want[i] {
				t.Fatalf("%v: TxFrame sample %d = %v, want %v", r, i, batch[i], want[i])
			}
		}
	}
}

func TestTxFrameAppendsToExistingSamples(t *testing.T) {
	psdu := []byte("appended payload")
	cfg := TxConfig{Rate: Rate12, ScramblerSeed: 9}
	frame, err := Modulate(psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make(dsp.Samples, 100)
	for i := range prefix {
		prefix[i] = complex(float64(i), -float64(i))
	}
	var codec TxCodec
	got, err := codec.TxFrame(prefix.Clone(), psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(frame) {
		t.Fatalf("length %d, want %d", len(got), len(prefix)+len(frame))
	}
	for i, v := range prefix {
		if got[i] != v {
			t.Fatalf("prefix sample %d clobbered", i)
		}
	}
	for i, v := range frame {
		if got[len(prefix)+i] != v {
			t.Fatalf("frame sample %d = %v, want %v", i, got[len(prefix)+i], v)
		}
	}
}

func TestRxFrameMatchesDemodulateAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var codec RxCodec
	for _, r := range AllRates {
		psdu := make([]byte, 1+rng.Intn(300))
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x31})
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		want, err := Demodulate(tx, 100, 260)
		if err != nil {
			t.Fatalf("%v: Demodulate: %v", r, err)
		}
		got, err := codec.RxFrame(tx, 100, 260)
		if err != nil {
			t.Fatalf("%v: RxFrame: %v", r, err)
		}
		if got.LTSIndex != want.LTSIndex || got.Rate != want.Rate || got.Length != want.Length {
			t.Fatalf("%v: header %+v, want %+v", r, got, want)
		}
		if !bytes.Equal(got.PSDU, want.PSDU) {
			t.Fatalf("%v: PSDU mismatch", r)
		}
		if !bytes.Equal(want.PSDU, psdu) {
			t.Fatalf("%v: loopback payload mismatch", r)
		}
	}
}

func TestInterleaveTablesMatchClosedForm(t *testing.T) {
	for r, info := range rateTable {
		perm := interleavePerm[r]
		if len(perm) != info.cbps {
			t.Fatalf("rate %v: table has %d entries, want %d", Rate(r), len(perm), info.cbps)
		}
		for k := 0; k < info.cbps; k++ {
			if int(perm[k]) != interleaveIndex(k, info.cbps, info.bpsc) {
				t.Fatalf("rate %v: perm[%d] = %d, want %d",
					Rate(r), k, perm[k], interleaveIndex(k, info.cbps, info.bpsc))
			}
		}
	}
}

func TestPuncturePatternsShared(t *testing.T) {
	for _, p := range []Puncture{Punct1_2, Punct2_3, Punct3_4} {
		if &p.pattern()[0] != &punctPatterns[p][0] {
			t.Fatalf("%v: pattern() returned a copy, want the shared table", p)
		}
	}
	if &Puncture(7).pattern()[0] != &punctPatterns[Punct1_2][0] {
		t.Fatal("invalid puncture should fall back to the 1/2 table")
	}
	if Punct1_2.kept() != 2 || Punct2_3.kept() != 3 || Punct3_4.kept() != 4 {
		t.Fatal("kept counts wrong")
	}
}

func TestCachedPreambleWaveformsImmutable(t *testing.T) {
	a := LongTrainingSymbol()
	a[0] = 99
	b := LongTrainingSymbol()
	if b[0] == 99 {
		t.Fatal("LongTrainingSymbol returned the cached buffer, not a copy")
	}
	pa := Preamble()
	pa[5] = 99
	if Preamble()[5] == 99 {
		t.Fatal("Preamble returned the cached buffer, not a copy")
	}
	for i, v := range renderLongTrainingSymbol() {
		if ltsCached[i] != v {
			t.Fatalf("cached LTS sample %d drifted", i)
		}
		want := complex(real(v), -imag(v))
		if ltsConjCached[i] != want {
			t.Fatalf("conjugated LTS sample %d = %v, want %v", i, ltsConjCached[i], want)
		}
	}
}

// TestBatchCodecsZeroAlloc is the steady-state allocation contract of the
// tentpole: after warm-up, a whole frame through either codec must not
// touch the allocator.
func TestBatchCodecsZeroAlloc(t *testing.T) {
	psdu := make([]byte, 1000)
	rng := rand.New(rand.NewSource(46))
	rng.Read(psdu)
	cfg := TxConfig{Rate: Rate54, ScramblerSeed: 0x5D}

	var tx TxCodec
	dst := make(dsp.Samples, 0, FrameDuration(cfg.Rate, len(psdu)))
	var err error
	dst, err = tx.TxFrame(dst, psdu, cfg) // warm the grow-only scratch
	if err != nil {
		t.Fatal(err)
	}
	frame := dst.Clone()
	if allocs := testing.AllocsPerRun(20, func() {
		dst = dst[:0]
		dst, err = tx.TxFrame(dst, psdu, cfg)
	}); allocs != 0 {
		t.Fatalf("TxFrame allocates %v times per frame in steady state", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}

	var rx RxCodec
	if _, err := rx.RxFrame(frame, 100, 260); err != nil {
		t.Fatal(err)
	}
	var res *RxResult
	if allocs := testing.AllocsPerRun(20, func() {
		res, err = rx.RxFrame(frame, 100, 260)
	}); allocs != 0 {
		t.Fatalf("RxFrame allocates %v times per frame in steady state", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("steady-state RxFrame corrupted the payload")
	}
}

func benchFrame(b *testing.B) (dsp.Samples, []byte, TxConfig) {
	b.Helper()
	psdu := make([]byte, 1000)
	rng := rand.New(rand.NewSource(47))
	rng.Read(psdu)
	cfg := TxConfig{Rate: Rate54, ScramblerSeed: 0x5D}
	frame, err := Modulate(psdu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return frame, psdu, cfg
}

func BenchmarkTxFrame(b *testing.B) {
	frame, psdu, cfg := benchFrame(b)
	var codec TxCodec
	dst := make(dsp.Samples, 0, len(frame))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = codec.TxFrame(dst[:0], psdu, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRxFrame(b *testing.B) {
	frame, _, _ := benchFrame(b)
	var codec RxCodec
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.RxFrame(frame, 100, 260); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulate(b *testing.B) {
	frame, psdu, cfg := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Modulate(psdu, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemodulate(b *testing.B) {
	frame, _, _ := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Demodulate(frame, 100, 260); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemodulateSoft times the soft-decision back-end on the same
// frame: the LLR DATA path and the int32 reference trellis.
func BenchmarkDemodulateSoft(b *testing.B) {
	frame, _, _ := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DemodulateSoft(frame, 100, 260); err != nil {
			b.Fatal(err)
		}
	}
}
