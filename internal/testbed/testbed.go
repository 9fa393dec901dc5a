// Package testbed models the wired, non-disruptive experimental setup of
// §4.1 (Fig. 9): a 5-port interconnect network built from power splitters,
// with 20 dB attenuators on ports 1 and 2 and a variable attenuator on
// port 4. The insertion losses between ports are the measured values of
// Table 1, characterized with a vector network analyzer.
//
// Port assignment follows the paper: 1 = access point, 2 = wireless client,
// 3 = oscilloscope, 4 = jammer transmitter, 5 = jammer receiver.
package testbed

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// NumPorts is the size of the interconnect network.
const NumPorts = 5

// Port identities (1-based, as in Fig. 9).
const (
	PortAP       = 1
	PortClient   = 2
	PortScope    = 3
	PortJammerTX = 4
	PortJammerRX = 5
)

// table1 holds the measured insertion losses in dB (input port selects the
// row, output port the column, 1-based, matching the paper's layout).
// Values are negative gains exactly as printed in Table 1.
var table1 = [NumPorts + 1][NumPorts + 1]float64{
	1: {0, 0, -51.0, -25.2, -38.4, -39.3},
	2: {0, -51.0, 0, -31.7, -32.0, -32.8},
	3: {0, -25.2, -31.7, 0, -19.1, -19.9},
	4: {0, -38.4, -32.0, -19.1, 0, math.Inf(-1)},
	5: {0, -39.2, -32.8, -19.8, math.Inf(-1), 0},
}

// Network is the 5-port splitter interconnect. The zero value is not
// usable; construct with New.
type Network struct {
	loss        [NumPorts + 1][NumPorts + 1]float64
	variableAtt float64 // extra dB inserted at port 4 (jammer TX)
}

// New returns the network with the paper's measured Table 1 losses and the
// variable attenuator at 0 dB.
func New() *Network {
	n := &Network{}
	n.loss = table1
	return n
}

// InsertionLossDB returns the measured loss in dB from input port to output
// port (a negative number), excluding the variable attenuator. It returns
// an error for invalid or isolated port pairs.
func (n *Network) InsertionLossDB(from, to int) (float64, error) {
	if from < 1 || from > NumPorts || to < 1 || to > NumPorts {
		return 0, fmt.Errorf("testbed: port pair (%d,%d) out of range", from, to)
	}
	if from == to {
		return 0, fmt.Errorf("testbed: port %d to itself is not a path", from)
	}
	l := n.loss[from][to]
	if math.IsInf(l, -1) {
		return 0, fmt.Errorf("testbed: ports %d and %d are isolated", from, to)
	}
	return l, nil
}

// SetVariableAttenuator sets the extra attenuation (dB, ≥0) in line with
// port 4, used to sweep the jammer's effective power over a large dynamic
// range.
func (n *Network) SetVariableAttenuator(db float64) error {
	if db < 0 {
		return fmt.Errorf("testbed: negative attenuation %v dB", db)
	}
	n.variableAtt = db
	return nil
}

// PathGain returns the amplitude gain from one port to another, including
// the variable attenuator when the path involves port 4. Isolated or
// invalid pairs have zero gain.
func (n *Network) PathGain(from, to int) float64 {
	l, err := n.InsertionLossDB(from, to)
	if err != nil {
		return 0
	}
	if from == PortJammerTX || to == PortJammerTX {
		l -= n.variableAtt
	}
	return dsp.AmplitudeFromDB(l)
}

// MeasureTable performs the VNA-style characterization of §4.1: it returns
// the full port-to-port insertion-loss matrix in dB (NaN on the diagonal and
// for isolated pairs), which experiment E5 prints as Table 1.
func (n *Network) MeasureTable() [NumPorts][NumPorts]float64 {
	var out [NumPorts][NumPorts]float64
	for in := 1; in <= NumPorts; in++ {
		for o := 1; o <= NumPorts; o++ {
			l, err := n.InsertionLossDB(in, o)
			if err != nil {
				out[in-1][o-1] = math.NaN()
				continue
			}
			out[in-1][o-1] = l
		}
	}
	return out
}
