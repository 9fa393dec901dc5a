// Quickstart: arm the reactive jammer with the 802.11g short-preamble
// template, stream one WiFi frame past it, and watch it detect and jam
// within the paper's latency budget.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
	"repro/internal/dsp"
	"repro/internal/wifi"
)

func main() {
	jam := reactivejam.New()

	// Protocol-aware detection: 802.11g short training sequence, threshold
	// calibrated to ~0.06 false alarms per second on a terminated input.
	if err := jam.DetectWiFiShortPreamble(0.059); err != nil {
		log.Fatal(err)
	}
	// A 0.1 ms wideband-noise burst per trigger, at unit TX gain.
	if _, err := jam.SetPersonality(reactivejam.Personality{
		Waveform: reactivejam.WGN,
		Uptime:   100 * time.Microsecond,
		Gain:     1,
	}); err != nil {
		log.Fatal(err)
	}
	// The victim transmits at the 802.11g native 20 MSPS; the jammer's
	// receive chain resamples to its fixed 25 MSPS.
	if err := jam.SetSourceRate(wifi.SampleRate); err != nil {
		log.Fatal(err)
	}

	tl := jam.Timelines()
	fmt.Println("latency budget (paper Fig. 5):")
	fmt.Printf("  energy detection   %8v\n", tl.EnergyDetect)
	fmt.Printf("  xcorr detection    %8v\n", tl.XCorrDetect)
	fmt.Printf("  TX init            %8v\n", tl.TXInit)
	fmt.Printf("  response (xcorr)   %8v\n", tl.ResponseXCorr)
	fmt.Printf("  jam burst          %8v\n", tl.JamBurst)

	// One 100-byte WiFi frame at 24 Mbps in light noise.
	frame, err := wifi.Modulate(wifi.AppendFCS(make([]byte, 100)),
		wifi.TxConfig{Rate: wifi.Rate24, ScramblerSeed: 0x2A})
	if err != nil {
		log.Fatal(err)
	}
	rx := make(dsp.Samples, 1000+len(frame)+1000)
	copy(rx[1000:], frame)
	rx.Scale(0.3)
	rng := rand.New(rand.NewSource(1))
	for i := range rx {
		rx[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-4
	}

	tx, err := jam.Process(rx)
	if err != nil {
		log.Fatal(err)
	}

	st := jam.Stats()
	firstJam := -1
	jamSamples := 0
	for i, s := range tx {
		if s != 0 {
			if firstJam < 0 {
				firstJam = i
			}
			jamSamples++
		}
	}
	fmt.Println("\nresult:")
	fmt.Printf("  frames on the air         1\n")
	fmt.Printf("  xcorr detections          %d\n", st.XCorrDetections)
	fmt.Printf("  jam triggers              %d\n", st.JamTriggers)
	fmt.Printf("  jam samples transmitted   %d (%.1f µs)\n",
		jamSamples, float64(jamSamples)/25)
	if firstJam >= 0 {
		// rx index 1000 at 20 MSPS = 50 µs; tx is at 25 MSPS.
		frameStartUS := 1000.0 / 20
		jamStartUS := float64(firstJam) / 25
		fmt.Printf("  jam started               %.2f µs after frame start\n",
			jamStartUS-frameStartUS)
	}
	fmt.Printf("  simulated hardware time   %v\n", jam.Elapsed())
}
