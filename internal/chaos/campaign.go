package chaos

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fixed"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/verdict"
	"repro/internal/xcorr"
)

// noiseFloorPower matches the detection experiments' -60 dBFS floor.
const noiseFloorPower = 1e-6

// Stimulus geometry: each block is lead noise, a frame of tiled WiFi short
// preamble, and a tail long enough for every jamming burst to finish and the
// engagement holdoff to release before the next block.
const (
	leadSamples = 512
	tailSamples = 768
	frameTiles  = 4
)

// The stimulus frame's power over the noise floor, and the correlator
// threshold's false-alarm target in triggers per second.
const (
	snrDB    = 12
	faPerSec = 0.5
)

// Config describes one fault campaign.
type Config struct {
	// Plan is the fault plan (zero value + seed = control campaign).
	Plan Plan
	// Frames is the number of stimulus blocks (default 12).
	Frames int
}

// KindCount is one per-kind fault tally in the report, ordered by kind.
type KindCount struct {
	Kind  FaultKind `json:"kind"`
	Count int       `json:"count"`
}

// Result is the outcome of one campaign. It contains no wall-clock state:
// marshaling it (and the sweep report built from it) is byte-identical
// across runs of the same plan.
type Result struct {
	// Class and Severity label the sweep cell (empty/0 for direct runs).
	Class    string `json:"class,omitempty"`
	Severity int    `json:"severity"`
	// Plan echoes the full fault plan for replay.
	Plan Plan `json:"plan"`
	// Frames and Samples describe the stimulus actually processed (Samples
	// reflects stream drop/dup length changes).
	Frames  int    `json:"frames"`
	Samples uint64 `json:"samples"`
	// FaultTotal and FaultCounts summarize the injection ledger.
	FaultTotal  int         `json:"fault_total"`
	FaultCounts []KindCount `json:"fault_counts,omitempty"`
	// LedgerHash is the FNV-1a hash of the fault ledger — the replay
	// witness: same plan ⇒ same hash, bit for bit.
	LedgerHash string `json:"ledger_fnv1a"`
	// Invariants is the checked catalog with verdicts, fixed order.
	Invariants []Invariant `json:"invariants"`
	// Held/Degraded/Broken tally the verdicts.
	Held     int `json:"held"`
	Degraded int `json:"degraded"`
	Broken   int `json:"broken"`

	// Faults is the full injection ledger (not serialized into the sweep
	// report; available to tests and direct callers).
	Faults []Fault `json:"-"`
}

// Run executes one fault campaign: a dual-core differential datapath (block
// mode through the radio vs per-sample shadow) fed the identical faulted
// stimulus and identical committed register sequence, with a standalone
// popcount-vs-reference correlator pair riding the same stream, followed by
// the full invariant check.
func Run(cfg Config) (*Result, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = 12
	}
	plan := cfg.Plan.withDefaults()
	if err := plan.validate(); err != nil {
		return nil, err
	}

	// Primary: the radio's block-mode path. Shadow: a bare per-sample core.
	r := radio.New()
	pc := r.Core()
	plive := telemetry.NewLive(plan.JournalDepth)
	pc.SetRecorder(plive)
	sc := core.New()
	slive := telemetry.NewLive(plan.JournalDepth)
	sc.SetRecorder(slive)
	r.Start()

	inj := newInjector(plan, pc.Clock())
	pc.Bus().Intercept(inj.interceptor())
	defer pc.Bus().Intercept(nil)

	// mirror replays newly committed (post-fault) writes onto the shadow
	// bus, so both cores always see the identical effective sequence.
	mirrored := 0
	mirror := func() error {
		for ; mirrored < len(inj.committed); mirrored++ {
			w := inj.committed[mirrored]
			if err := sc.Bus().Write(w.Addr, w.Value); err != nil {
				return err
			}
		}
		return nil
	}
	program := func(f func() error) error {
		if err := f(); err != nil {
			return err
		}
		return mirror()
	}

	h := host.New(pc)
	tpl := host.WiFiShortTemplate()
	steps := []func() error{
		func() error {
			return h.Arm(host.Detector{
				Template: tpl, FATargetPerSec: faPerSec, EnergyThresholdDB: host.EnergyRiseDB,
			})
		},
		func() error {
			_, err := h.ProgramJammer(host.Personality{
				Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1,
			})
			return err
		},
	}
	for _, s := range steps {
		if err := program(s); err != nil {
			return nil, err
		}
	}

	// Timing faults are campaign-wide; ledger them at cycle 0.
	var chain *impair.Chain
	if plan.ClockOffsetPPM != 0 {
		chain = impair.New(impair.Config{
			ClockOffsetPPM: plan.ClockOffsetPPM,
			SampleRate:     fpga.SampleRateHz,
			Seed:           plan.Seed,
		})
		inj.record(FaultClockRamp, uint64(int64(plan.ClockOffsetPPM*1000)))
	}
	if plan.JournalDepth > 0 && plan.JournalDepth < telemetry.DefaultJournalDepth {
		inj.record(FaultJournalPressure, uint64(plan.JournalDepth))
	}

	// Standalone kernel differential pair on the same faulted stream.
	ci, cq := xcorr.CoefficientsFromTemplate(tpl)
	thr := xcorr.ThresholdForFARate(ci, cq, faPerSec)
	hw := xcorr.New()
	ref := xcorr.NewReference()
	for _, c := range []interface {
		SetCoefficients(i, q []fixed.Coeff3) error
		SetThreshold(uint32)
	}{hw, ref} {
		if err := c.SetCoefficients(ci, cq); err != nil {
			return nil, err
		}
		c.SetThreshold(thr)
	}

	frame := make(dsp.Samples, 0, frameTiles*len(tpl))
	for i := 0; i < frameTiles; i++ {
		frame = append(frame, tpl...)
	}
	noise := dsp.NewNoiseSource(noiseFloorPower, plan.Seed+101)
	pclock := pc.Clock()

	var buf dsp.Samples
	var txMM, xcMM, samples uint64
	packets := make([]verdict.Packet, 0, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		inj.block = f
		// Stalled setting-bus writes that come due commit now, on both cores.
		if due := inj.dueDelayed(f); len(due) > 0 {
			inj.bypass = true
			for _, w := range due {
				if err := pc.Bus().Write(w.Addr, w.Value); err != nil {
					inj.bypass = false
					return nil, err
				}
			}
			inj.bypass = false
			if err := mirror(); err != nil {
				return nil, err
			}
		}
		// Mid-campaign personality switch through the faulty bus (§4.3's
		// on-the-fly reprogramming, now under fire).
		if f == cfg.Frames/2 && f > 0 {
			mid := []func() error{
				func() error {
					_, err := h.ProgramJammer(host.Personality{
						Waveform: jammer.WaveformWGN, Uptime: 20 * time.Microsecond, Gain: 1,
					})
					return err
				},
				func() error { _, err := h.ProgramEnergy(6, 0); return err },
			}
			for _, s := range mid {
				if err := program(s); err != nil {
					return nil, err
				}
			}
		}

		buf = noise.AddTo(dsp.Frame(buf, frame, leadSamples, tailSamples, snrDB, noiseFloorPower))
		if chain != nil {
			chain.ProcessInto(buf, buf)
		}
		buf = inj.mutateBlock(buf)

		start := pclock.Cycle()
		txP, err := r.Process(buf)
		if err != nil {
			return nil, err
		}
		packets = append(packets, verdict.Packet{Index: f, Start: start, End: pclock.Cycle()})
		for i, s := range buf {
			if sc.ProcessSample(s) != txP[i] {
				txMM++
			}
			q := fixed.Quantize(s)
			m1, t1 := hw.Process(q)
			m2, t2 := ref.Process(q)
			if m1 != m2 || t1 != t2 {
				xcMM++
			}
		}
		samples += uint64(len(buf))
	}

	chk := &Checker{
		Primary:      plive,
		Shadow:       slive,
		PrimaryStats: pc.Stats(),
		ShadowStats:  sc.Stats(),
		TxMismatches: txMM, XCorrMismatches: xcMM,
		Committed: inj.committed,
		Bus:       pc.Bus(),
		Packets:   packets,
		DetectionKinds: []telemetry.EventKind{
			telemetry.EvXCorrEdge, telemetry.EvEnergyHighEdge,
		},
	}
	res := &Result{
		Plan:       plan,
		Frames:     cfg.Frames,
		Samples:    samples,
		FaultTotal: len(inj.ledger),
		LedgerHash: ledgerHash(inj.ledger),
		Invariants: chk.Check(),
		Faults:     inj.ledger,
	}
	var byKind [numFaultKinds]int
	for _, f := range inj.ledger {
		byKind[f.Kind]++
	}
	for k, n := range byKind {
		if n > 0 {
			res.FaultCounts = append(res.FaultCounts, KindCount{Kind: FaultKind(k), Count: n})
		}
	}
	for _, inv := range res.Invariants {
		switch inv.Status {
		case Held:
			res.Held++
		case Degraded:
			res.Degraded++
		case Broken:
			res.Broken++
		}
	}
	return res, nil
}

// ledgerHash folds the fault ledger through FNV-1a, the replay witness the
// report carries.
func ledgerHash(faults []Fault) string {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, f := range faults {
		mix(f.Cycle)
		mix(uint64(f.Kind))
		mix(f.Arg)
	}
	return fmt.Sprintf("%016x", h)
}
