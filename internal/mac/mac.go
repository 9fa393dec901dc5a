// Package mac implements the 802.11 distributed coordination function used
// by the throughput experiments of §4: CSMA/CA with clear-channel
// assessment, binary exponential backoff, ACKs with retransmission up to a
// retry limit, and ARF-style rate adaptation ("the 802.11 buffering
// parameters and rate back-offs are not constrained" — §4.2).
//
// The package provides the protocol logic and air-time accounting; the
// waveform-level link (who actually decodes what under jamming) is driven
// by package iperf, which feeds transmission outcomes back into these state
// machines.
package mac

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/wifi"
)

// 802.11g OFDM timing parameters (2.4 GHz, short slot).
const (
	SlotTime   = 9 * time.Microsecond
	SIFS       = 10 * time.Microsecond
	DIFS       = SIFS + 2*SlotTime // 28 µs
	AckTimeout = SIFS + 50*time.Microsecond
	// CWMin and CWMax bound the contention window.
	CWMin = 15
	CWMax = 1023
)

// HeaderBytes is the data MPDU overhead: 24-byte MAC header + 8-byte
// LLC/SNAP; the 4-byte FCS is accounted separately.
const HeaderBytes = 24 + 8

// AckBytes is the ACK MPDU length including FCS.
const AckBytes = 14

// AckRate is the control-response rate used for ACK frames.
const AckRate = wifi.Rate24

// RetryLimit is the default long retry limit.
const RetryLimit = 7

// FrameAirtime returns the PPDU duration for a payload of n bytes carried
// as one MPDU (header + payload + FCS) at the given rate.
func FrameAirtime(rate wifi.Rate, payloadBytes int) time.Duration {
	psdu := HeaderBytes + payloadBytes + 4
	samples := wifi.FrameDuration(rate, psdu)
	return time.Duration(samples) * time.Second / wifi.SampleRate
}

// AckAirtime returns the ACK PPDU duration.
func AckAirtime() time.Duration {
	samples := wifi.FrameDuration(AckRate, AckBytes)
	return time.Duration(samples) * time.Second / wifi.SampleRate
}

// Backoff tracks the DCF contention window for one station.
type Backoff struct {
	cw  int
	rng *rand.Rand
}

// NewBackoff returns a backoff state at CWMin with the given PRNG seed.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{cw: CWMin, rng: rand.New(rand.NewSource(seed))}
}

// Draw samples a backoff duration from the current window.
func (b *Backoff) Draw() time.Duration {
	slots := b.rng.Intn(b.cw + 1)
	return time.Duration(slots) * SlotTime
}

// OnFailure doubles the window (saturating at CWMax).
func (b *Backoff) OnFailure() {
	b.cw = min(2*b.cw+1, CWMax)
}

// OnSuccess resets the window to CWMin.
func (b *Backoff) OnSuccess() { b.cw = CWMin }

// ARF is automatic-rate-fallback state: consecutive failures step the rate
// down, a run of successes steps it back up.
type ARF struct {
	rate      wifi.Rate
	failRun   int
	succRun   int
	downAfter int
	upAfter   int
}

// NewARF returns ARF state starting at the given rate, stepping down after
// 2 consecutive failures and up after 10 consecutive successes.
func NewARF(start wifi.Rate) *ARF {
	return &ARF{rate: start, downAfter: 2, upAfter: 10}
}

// Rate returns the current transmission rate.
func (a *ARF) Rate() wifi.Rate { return a.rate }

// OnResult feeds one transmission outcome into the adaptation.
func (a *ARF) OnResult(success bool) {
	if success {
		a.succRun++
		a.failRun = 0
		if a.succRun >= a.upAfter && a.rate < wifi.Rate54 {
			a.rate++
			a.succRun = 0
		}
		return
	}
	a.failRun++
	a.succRun = 0
	if a.failRun >= a.downAfter && a.rate > wifi.Rate6 {
		a.rate--
		a.failRun = 0
	}
}

// CCAThreshold is the clear-channel-assessment energy-detect level relative
// to the station's noise floor: the medium reports busy when the in-band
// power exceeds the noise floor by this factor. 802.11 energy detect sits
// roughly 20 dB above a typical noise floor.
const CCAThresholdDB = 20.0

// CCA reports whether the medium is busy given the ambient (non-own)
// in-band power and the station noise floor.
func CCA(ambientPower, noiseFloor float64) bool {
	return ambientPower > noiseFloor*math.Pow(10, CCAThresholdDB/10)
}

// TxAttempt describes one MPDU transmission attempt for the link simulator.
type TxAttempt struct {
	// Rate is the PHY rate for this attempt.
	Rate wifi.Rate
	// Retry is the retry index (0 = first attempt).
	Retry int
	// Airtime is the data PPDU duration.
	Airtime time.Duration
}

// Sequencer runs the DCF transmit sequence for a single saturated sender:
// it produces the attempt schedule for each MSDU given per-attempt outcomes
// and accumulates air/idle time.
type Sequencer struct {
	backoff *Backoff
	arf     *ARF
	elapsed time.Duration
	// Failures counts consecutive MSDU (not attempt) failures for
	// link-drop detection.
	consecutiveMSDUFailures int
}

// NewSequencer returns a sequencer starting at the given rate.
func NewSequencer(start wifi.Rate, seed int64) *Sequencer {
	return &Sequencer{backoff: NewBackoff(seed), arf: NewARF(start)}
}

// Elapsed returns the accumulated simulated air/idle time.
func (s *Sequencer) Elapsed() time.Duration { return s.elapsed }

// Rate returns the current adapted rate.
func (s *Sequencer) Rate() wifi.Rate { return s.arf.Rate() }

// ConsecutiveMSDUFailures reports the current failure run length.
func (s *Sequencer) ConsecutiveMSDUFailures() int { return s.consecutiveMSDUFailures }

// SendMSDU runs the retransmission loop for one MSDU of payloadBytes. The
// try callback performs the actual over-the-air exchange for one attempt
// and reports whether the ACK came back. SendMSDU returns whether the MSDU
// was delivered and updates timing, backoff and rate adaptation.
func (s *Sequencer) SendMSDU(payloadBytes int, try func(TxAttempt) bool) (bool, error) {
	if try == nil {
		return false, fmt.Errorf("mac: nil attempt callback")
	}
	for retry := 0; retry <= RetryLimit; retry++ {
		rate := s.arf.Rate()
		air := FrameAirtime(rate, payloadBytes)
		s.elapsed += DIFS + s.backoff.Draw()
		attempt := TxAttempt{Rate: rate, Retry: retry, Airtime: air}
		ok := try(attempt)
		s.elapsed += air
		if ok {
			s.elapsed += SIFS + AckAirtime()
			s.backoff.OnSuccess()
			s.arf.OnResult(true)
			s.consecutiveMSDUFailures = 0
			return true, nil
		}
		s.elapsed += AckTimeout
		s.backoff.OnFailure()
		s.arf.OnResult(false)
	}
	s.consecutiveMSDUFailures++
	return false, nil
}
