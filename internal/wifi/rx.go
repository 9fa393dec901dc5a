package wifi

import (
	"fmt"

	"repro/internal/dsp"
)

// Receiver-side processing: long-training-sequence synchronization, channel
// estimation, SIGNAL decoding, and DATA-field recovery. This is the "AP and
// client" side of the validation experiments — a frame that decodes with a
// valid FCS counts as received; a frame whose payload was hit by the jammer
// fails here and triggers MAC retransmission.
//
// There is one receiver, RxCodec (batch.go): a shared front end and tail
// around a hard-decision DATA path (RxFrame, Demodulate) and a
// soft-decision one (DemodulateSoft, soft.go). The exported entry points
// borrow a pooled RxCodec so the per-frame symbol pipeline and Viterbi
// decode reuse scratch instead of allocating; callers that process many
// frames back to back can hold their own RxCodec and use RxFrame directly
// for the fully allocation-free path.

// RxResult reports one demodulated PPDU.
type RxResult struct {
	// LTSIndex is the sample index of the first long training symbol.
	LTSIndex int
	// Rate and Length are the decoded SIGNAL parameters.
	Rate   Rate
	Length int
	// PSDU is the recovered payload (Length bytes).
	PSDU []byte
}

// ErrSync is returned when no plausible long training sequence is found.
var ErrSync = fmt.Errorf("wifi: synchronization failed")

// Demodulate recovers one PPDU from the waveform, searching for the long
// preamble start in [searchFrom, searchTo). On success the PSDU has been
// Viterbi-decoded and descrambled; FCS checking is the caller's (MAC's)
// concern. The returned result is a copy the caller owns.
func Demodulate(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	c := rxPool.Get().(*RxCodec)
	defer rxPool.Put(c)
	return detach(c.RxFrame(x, searchFrom, searchTo))
}

// detach copies a codec-owned result out for a caller that keeps it.
func detach(res *RxResult, err error) (*RxResult, error) {
	if err != nil {
		return nil, err
	}
	out := *res
	out.PSDU = append([]byte(nil), res.PSDU...)
	return &out, nil
}
