// Package capture implements an I/Q recording format for the framework's
// signal-intelligence workflows (§2.1 motivates the USRP choice partly by
// "its existing integration with several signal intelligence libraries"):
// complex baseband streams are stored as interleaved 16-bit I/Q — the same
// quantization the FPGA sees — with a small self-describing header carrying
// the sample rate, center frequency, and a capture timestamp.
//
// Recordings round-trip through io.Writer/io.Reader, so they work with
// files, network pipes, or in-memory buffers. jamlab uses them to record a
// jamming engagement and replay it into a fresh detector.
package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/dsp"
	"repro/internal/fixed"
)

// Magic identifies a recording stream ("RJIQ" + version 1).
var Magic = [4]byte{'R', 'J', 'Q', '1'}

// Header describes one recording.
type Header struct {
	// SampleRateHz of the recorded stream.
	SampleRateHz uint32
	// CenterFreqHz the front end was tuned to.
	CenterFreqHz float64
	// UnixNanos is the capture start time (0 if unknown).
	UnixNanos int64
	// Samples is the number of complex samples that follow.
	Samples uint64
}

// headerSize is the fixed on-stream header length in bytes.
const headerSize = 4 + 4 + 8 + 8 + 8

// Write serializes a header and the quantized samples.
func Write(w io.Writer, h Header, samples dsp.Samples) error {
	if h.SampleRateHz == 0 {
		return fmt.Errorf("capture: sample rate required")
	}
	h.Samples = uint64(len(samples))
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], h.SampleRateHz)
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(h.CenterFreqHz))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(h.UnixNanos))
	binary.LittleEndian.PutUint64(hdr[24:], h.Samples)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(samples))
	for i, s := range samples {
		q := fixed.Quantize(s)
		binary.LittleEndian.PutUint16(buf[4*i:], uint16(q.I))
		binary.LittleEndian.PutUint16(buf[4*i+2:], uint16(q.Q))
	}
	_, err := w.Write(buf)
	return err
}

// Read parses a recording, returning its header and samples (dequantized
// to ±1.0 floating point).
func Read(r io.Reader) (Header, dsp.Samples, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, nil, fmt.Errorf("capture: header: %w", err)
	}
	if [4]byte(hdr[0:4]) != Magic {
		return Header{}, nil, fmt.Errorf("capture: bad magic %q", hdr[0:4])
	}
	h := Header{
		SampleRateHz: binary.LittleEndian.Uint32(hdr[4:]),
		CenterFreqHz: math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
		UnixNanos:    int64(binary.LittleEndian.Uint64(hdr[16:])),
		Samples:      binary.LittleEndian.Uint64(hdr[24:]),
	}
	if h.SampleRateHz == 0 {
		return Header{}, nil, fmt.Errorf("capture: zero sample rate")
	}
	const maxSamples = 1 << 30 // 4 GiB of payload; refuse absurd headers
	if h.Samples > maxSamples {
		return Header{}, nil, fmt.Errorf("capture: header claims %d samples", h.Samples)
	}
	// Read the payload in bounded chunks, so that what is allocated grows
	// with the bytes actually present rather than with what the header
	// claims.
	const chunkSamples = 4096
	out := make(dsp.Samples, 0, min(h.Samples, chunkSamples))
	buf := make([]byte, 4*chunkSamples)
	for remaining := h.Samples; remaining > 0; {
		n := min(remaining, chunkSamples)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return Header{}, nil, fmt.Errorf("capture: payload after %d of %d samples: %w",
				len(out), h.Samples, err)
		}
		for i := range int(n) {
			iq := fixed.IQ{
				I: int16(binary.LittleEndian.Uint16(buf[4*i:])),
				Q: int16(binary.LittleEndian.Uint16(buf[4*i+2:])),
			}
			out = append(out, iq.Complex())
		}
		remaining -= n
	}
	return h, out, nil
}

// Recorder incrementally captures a stream and finalizes to a writer. It
// buffers samples in quantized form so long captures cost 4 bytes each.
type Recorder struct {
	h   Header
	buf []byte
	n   uint64
}

// NewRecorder starts a capture with the given metadata.
func NewRecorder(h Header) (*Recorder, error) {
	if h.SampleRateHz == 0 {
		return nil, fmt.Errorf("capture: sample rate required")
	}
	return &Recorder{h: h}, nil
}

// Append adds samples to the capture.
func (r *Recorder) Append(samples dsp.Samples) {
	start := len(r.buf)
	r.buf = append(r.buf, make([]byte, 4*len(samples))...)
	for i, s := range samples {
		q := fixed.Quantize(s)
		binary.LittleEndian.PutUint16(r.buf[start+4*i:], uint16(q.I))
		binary.LittleEndian.PutUint16(r.buf[start+4*i+2:], uint16(q.Q))
	}
	r.n += uint64(len(samples))
}

// Samples returns the number captured so far.
func (r *Recorder) Samples() uint64 { return r.n }

// Finalize writes the complete recording.
func (r *Recorder) Finalize(w io.Writer) error {
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], r.h.SampleRateHz)
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(r.h.CenterFreqHz))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(r.h.UnixNanos))
	binary.LittleEndian.PutUint64(hdr[24:], r.n)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(r.buf)
	return err
}
