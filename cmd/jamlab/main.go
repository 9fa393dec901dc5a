// Command jamlab is the host-side control console of §2.5 — the "reactive
// jamming event builder" — reimagined as a scriptable CLI. It drives a
// simulated platform: configure detectors and jammer personalities exactly
// as the paper's GNU Radio Companion GUI does (every command maps to user
// register-bus writes), inject test traffic, and read back the host
// feedback counters.
//
// Commands (one per line on stdin, or as trailing arguments joined by ';'):
//
//	detect wifi-short <fa/s>      arm xcorr with the 802.11g STS template
//	detect wifi-long <fa/s>       arm xcorr with the 802.11g LTS template
//	detect wimax <cell> <segment> arm xcorr+energy fusion for 802.16e
//	detect energy <dB>            arm the energy differentiator alone
//	personality <wgn|replay> <uptime> <delay> <gain>
//	personality host <uptime> <delay> <gain> <file>
//	                              jam with a saved 25 MSPS capture (see save)
//	inject wifi <mbps> <bytes> <count>   modulate+stream 802.11g frames
//	inject wifib <bytes> <count>         modulate+stream 802.11b DSSS frames
//	inject wimax <count>                 stream WiMAX downlink frames
//	inject idle <ms>                     stream noise-floor samples (0 < ms ≤ 1000)
//	record <file>                 start recording jammer TX to an IQ capture
//	save                          finalize the recording
//	replay <file>                 stream a recorded capture into the detector
//	timelines                     print the Fig. 5 latency budget
//	stats                         poll host feedback counters
//	reset                         clear the feedback counters
//	quit
//
// Flags:
//
//	-telemetry-addr host:port     serve this console as the "jamlab" cell of a
//	                              one-cell fleet: the fleet exposition at
//	                              /metrics, its SSE rollups at /stream (a
//	                              broadcast that drops stalled subscribers),
//	                              and net/http/pprof at /debug/pprof/
//	-stream-interval duration     /stream push cadence (default 1s)
//	-trace-out file.json          dump the event journal as Chrome
//	                              trace_event JSON at exit
//	-flight-out file.json         arm the flight recorder; an anomaly alert
//	                              (or shutdown) dumps the incident here
//	-profile-dir dir              continuous CPU/heap profiling into dir
//
// Any of these flags attaches the live telemetry recorder; injected frames
// are marked so reaction-latency histograms measure frame-start→RF-on. With
// the recorder attached, a streaming anomaly detector watches every
// processed block and journals alerts as first-class events. A one-line
// telemetry summary prints on shutdown.
// The end of input, quit, SIGINT and SIGTERM all take that shutdown path,
// which also ends every /stream response and drains the server.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/capture"
	"repro/internal/dsp"
	"repro/internal/fpga"
	"repro/internal/telemetry"
	"repro/internal/telemetry/anomaly"
	"repro/internal/telemetry/fleet"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/profile"
	"repro/internal/wifi"
	"repro/internal/wifib"
	"repro/internal/wimax"
)

type console struct {
	jam  *reactivejam.Framework
	rng  *rand.Rand
	out  io.Writer
	rate int // current source rate

	rec     *capture.Recorder
	recPath string

	// Observability plane (nil unless telemetry is enabled).
	flight    *flight.Recorder
	flightOut string // incident dump path ("" writes no dump)
	det       *anomaly.Detector
	dumped    bool
	sampler   *profile.Sampler

	// Telemetry server (nil unless -telemetry-addr): agg is the one-cell
	// fleet behind /metrics and bcast streams its rollups on /stream.
	agg   *fleet.Aggregator
	bcast *telemetry.Broadcaster
	srv   *http.Server
}

// newConsole returns a console on a fresh platform at the native 25 MSPS,
// printing to out.
func newConsole(out io.Writer) *console {
	return &console{
		jam:  reactivejam.New(),
		rng:  rand.New(rand.NewSource(1)),
		out:  out,
		rate: 25_000_000,
	}
}

var (
	telemetryAddr = flag.String("telemetry-addr", "",
		"serve /metrics, /stream and /debug/pprof/ on this address (enables telemetry)")
	streamInterval = flag.Duration("stream-interval", time.Second,
		"push cadence of the /stream SSE rollups")
	traceOut = flag.String("trace-out", "",
		"write Chrome trace_event JSON here at exit (enables telemetry)")
	flightOut = flag.String("flight-out", "",
		"write the flight-recorder incident dump here (enables telemetry)")
	profileDir = flag.String("profile-dir", "",
		"capture periodic CPU/heap profiles into this directory (enables telemetry)")
)

// Bounds of the telemetry server: a keep-alive connection idle between
// requests is closed after idleTimeout (a /stream in progress is never
// idle), and shutdown drains the server within drainTimeout.
const (
	idleTimeout  = time.Minute
	drainTimeout = 5 * time.Second
)

func main() {
	flag.Parse()
	c := newConsole(os.Stdout)
	if *telemetryAddr != "" || *traceOut != "" || *flightOut != "" || *profileDir != "" {
		c.enableTelemetry(*flightOut)
	}
	if *profileDir != "" {
		c.sampler = profile.NewSampler(*profileDir)
		if err := c.sampler.Start(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(c.out, "profiling: CPU/heap captures into %s\n", *profileDir)
	}
	if *telemetryAddr != "" {
		ln, err := net.Listen("tcp", *telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		c.serveTelemetry(ln, *streamInterval)
		fmt.Fprintf(c.out, "telemetry: http://%s/metrics, /stream, pprof at /debug/pprof/\n", ln.Addr())
	}
	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) > 0 {
		in = strings.NewReader(strings.ReplaceAll(strings.Join(args, " "), ";", "\n"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	fmt.Fprintln(c.out, "jamlab — reactive jamming event builder (type 'quit' to exit)")
	err := c.run(ctx, in)
	stop() // a second signal kills the process during the drain
	if err != nil {
		log.Fatal(err)
	}
	c.shutdown(*traceOut)
}

// enableTelemetry attaches the live recorder, arms the flight recorder and
// starts the anomaly detector (fed synchronously per processed block), whose
// first alert writes an incident dump to flightOut ("" writes none).
func (c *console) enableTelemetry(flightOut string) {
	live := c.jam.EnableTelemetry()
	c.flightOut = flightOut
	c.flight = flight.New(live, 0)
	c.flight.Arm()
	c.det = anomaly.New(live)
	c.det.OnAlert = func(a anomaly.Alert) {
		fmt.Fprintf(c.out, "anomaly: %s z=%.1f (value %.4g, baseline %.4g) at cycle %d\n",
			a.Name, a.Score, a.Value, a.Mean, a.Cycle)
		if c.flightOut != "" && !c.dumped {
			d := c.flight.Trigger(flight.TriggerAnomaly, a.Cycle,
				fmt.Sprintf("anomaly on %s: z=%.1f", a.Name, a.Score))
			if err := writeDump(c.flightOut, d); err != nil {
				fmt.Fprintf(c.out, "error: flight dump: %v\n", err)
				return
			}
			c.dumped = true
			fmt.Fprintf(c.out, "flight recorder: incident dump written to %s\n", c.flightOut)
		}
	}
}

// serveTelemetry binds the live recorder as the "jamlab" cell of a one-cell
// fleet and serves it on ln: the fleet exposition at /metrics, the fleet's
// rollups every interval at /stream, and net/http/pprof at /debug/pprof/.
// Telemetry must be enabled; shutdown drains the server.
func (c *console) serveTelemetry(ln net.Listener, interval time.Duration) {
	c.agg = fleet.New(fleet.Options{
		Budgets: fleet.DefaultBudgets(c.jam.GroupDelayCycles()),
		// The exposition counts the stalled /stream subscribers dropped.
		DroppedClients: func() uint64 { return c.bcast.DroppedClients() },
	})
	c.agg.Cell("jamlab").BindLive(c.jam.Telemetry())
	c.bcast = telemetry.NewBroadcaster(interval, c.agg.RollupSource())
	c.bcast.Start()

	mux := http.NewServeMux()
	mux.Handle("/metrics", c.agg.Handler())
	mux.Handle("/stream", c.bcast)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// No write timeout: /stream and /debug/pprof/profile responses are
	// long by design.
	c.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: idleTimeout}
	go func() {
		if err := c.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
}

// run evaluates commands from in, one per line, until quit, the end of the
// input, or ctx is done. A read blocked on in when run returns stays
// blocked: main exits after shutdown.
func (c *console) run(ctx context.Context, in io.Reader) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lines := make(chan string)
	var scanErr error
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			select {
			case lines <- strings.TrimSpace(sc.Text()):
			case <-ctx.Done():
				return
			}
		}
		scanErr = sc.Err()
	}()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(c.out, "interrupted")
			return nil
		case line, ok := <-lines:
			if !ok {
				return scanErr
			}
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if line == "quit" || line == "exit" {
				return nil
			}
			if err := c.eval(line); err != nil {
				fmt.Fprintf(c.out, "error: %v\n", err)
			}
		}
	}
}

// writeDump writes one flight-recorder dump as indented JSON.
func writeDump(path string, d *flight.Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shutdown dumps the trace file and prints the one-line telemetry summary.
func (c *console) shutdown(tracePath string) {
	if c.sampler != nil {
		sum, err := c.sampler.Stop()
		if err != nil {
			fmt.Fprintf(c.out, "profiling error: %v\n", err)
		}
		fmt.Fprintf(c.out, "profiling: %d CPU + %d heap captures in %s, heap %.1f MiB live\n",
			sum.CPUProfiles, sum.HeapProfiles, sum.Dir,
			float64(sum.HeapAllocBytes)/(1<<20))
	}
	if !c.jam.TelemetryEnabled() {
		return
	}
	// No anomaly fired during the session: capture a manual snapshot so
	// -flight-out always yields a dump.
	if c.flightOut != "" && !c.dumped {
		d := c.flight.Trigger(flight.TriggerManual, c.cycle(), "shutdown snapshot")
		if err := writeDump(c.flightOut, d); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(c.out, "flight recorder: shutdown snapshot written to %s\n", c.flightOut)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.jam.WriteTrace(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(c.out, "trace written to %s\n", tracePath)
	}
	if c.srv != nil {
		// End every /stream response first: the drain waits for them.
		c.bcast.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := c.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(c.out, "error: telemetry drain: %v\n", err)
			c.srv.Close()
		}
		cancel()
		fs := c.agg.Snapshot()
		fmt.Fprintf(c.out, "fleet: %d cell(s), SLO pass %d fail %d, %d dropped stream client(s)\n",
			len(fs.Cells), fs.SLOPassing, fs.SLOFailing, fs.StreamDroppedClients)
	}
	s := c.jam.Summary()
	fmt.Fprintf(c.out,
		"telemetry: %d samples, %d jam bursts, reaction p50 %v p99 %v, %d journal events\n",
		s.Samples, s.JamTriggers, s.ReactionP50, s.ReactionP99, s.Events)
}

func (c *console) eval(line string) error {
	f := strings.Fields(line)
	switch f[0] {
	case "detect":
		return c.detect(f[1:])
	case "personality":
		return c.personality(f[1:])
	case "inject":
		return c.inject(f[1:])
	case "timelines":
		tl := c.jam.Timelines()
		fmt.Fprintf(c.out, "Ten_det %v  Txcorr_det %v  Tinit %v  Tresp(en) %v  Tresp(xc) %v  Tjam %v\n",
			tl.EnergyDetect, tl.XCorrDetect, tl.TXInit,
			tl.ResponseEnergy, tl.ResponseXCorr, tl.JamBurst)
		return nil
	case "stats":
		st := c.jam.Poll()
		fmt.Fprintf(c.out, "samples %d  xcorr %d  energy-high %d  energy-low %d  triggers %d  jam-samples %d  reg-writes %d  polls %d\n",
			st.Samples, st.XCorrDetections, st.EnergyHighDetections,
			st.EnergyLowDetections, st.JamTriggers, st.JamSamples,
			st.RegWrites, st.HostPolls)
		return nil
	case "record":
		if len(f) < 2 {
			return fmt.Errorf("record <file>")
		}
		rec, err := capture.NewRecorder(capture.Header{
			SampleRateHz: txRateHz,
			CenterFreqHz: 2.484e9,
		})
		if err != nil {
			return err
		}
		c.rec, c.recPath = rec, f[1]
		fmt.Fprintf(c.out, "recording jammer TX to %s\n", c.recPath)
		return nil
	case "save":
		if c.rec == nil {
			return fmt.Errorf("no recording in progress")
		}
		file, err := os.Create(c.recPath)
		if err != nil {
			return err
		}
		if err := c.rec.Finalize(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "saved %d samples to %s\n", c.rec.Samples(), c.recPath)
		c.rec = nil
		return nil
	case "replay":
		if len(f) < 2 {
			return fmt.Errorf("replay <file>")
		}
		file, err := os.Open(f[1])
		if err != nil {
			return err
		}
		defer file.Close()
		h, samples, err := capture.Read(file)
		if err != nil {
			return err
		}
		if err := c.setRate(int(h.SampleRateHz)); err != nil {
			return err
		}
		if _, err := c.process(samples); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "replayed %d samples at %d S/s\n", len(samples), h.SampleRateHz)
		return nil
	case "reset":
		c.jam.ResetStats()
		fmt.Fprintln(c.out, "counters cleared")
		return nil
	default:
		return fmt.Errorf("unknown command %q", f[0])
	}
}

func (c *console) detect(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("detect needs a mode")
	}
	switch args[0] {
	case "wifi-short", "wifi-long":
		fa := 0.1
		if len(args) > 1 {
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil {
				return err
			}
			fa = v
		}
		if err := c.setRate(wifi.SampleRate); err != nil {
			return err
		}
		if args[0] == "wifi-short" {
			if err := c.jam.DetectWiFiShortPreamble(fa); err != nil {
				return err
			}
		} else if err := c.jam.DetectWiFiLongPreamble(fa); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "armed %s template, FA target %g/s\n", args[0], fa)
		return nil
	case "wimax":
		if len(args) < 3 {
			return fmt.Errorf("detect wimax <cellID> <segment>")
		}
		cell, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		seg, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		if err := c.setRate(wimax.ActualSampleRate); err != nil {
			return err
		}
		if err := c.jam.DetectWiMAX(cell, seg); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "armed WiMAX fusion detection, cell %d segment %d\n", cell, seg)
		return nil
	case "energy":
		db := 10.0
		if len(args) > 1 {
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil {
				return err
			}
			db = v
		}
		if err := c.jam.DetectEnergyRise(db); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "armed energy-rise detection at %g dB\n", db)
		return nil
	default:
		return fmt.Errorf("unknown detector %q", args[0])
	}
}

// txRateHz is the rate of the core's transmit output, which record captures
// and the host-stream personality plays back.
const txRateHz = 25_000_000

func (c *console) personality(args []string) error {
	if len(args) < 4 || (args[0] == "host" && len(args) < 5) {
		return fmt.Errorf("personality <wgn|replay> <uptime> <delay> <gain>, or personality host <uptime> <delay> <gain> <file>")
	}
	var w reactivejam.Waveform
	var stream dsp.Samples // the host-stream buffer, loaded before any register write
	switch args[0] {
	case "wgn":
		w = reactivejam.WGN
	case "replay":
		w = reactivejam.Replay
	case "host":
		w = reactivejam.HostStream
		var err error
		if stream, err = loadHostStream(args[4]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown waveform %q", args[0])
	}
	up, err := time.ParseDuration(args[1])
	if err != nil {
		return err
	}
	delay, err := time.ParseDuration(args[2])
	if err != nil {
		return err
	}
	gain, err := strconv.ParseFloat(args[3], 64)
	if err != nil {
		return err
	}
	lat, err := c.jam.SetPersonality(reactivejam.Personality{
		Waveform: w, Uptime: up, Delay: delay, Gain: gain,
	})
	if err != nil {
		return err
	}
	if stream != nil {
		c.jam.SetHostWaveform(stream)
	}
	fmt.Fprintf(c.out, "personality switched in %v of bus time\n", lat)
	return nil
}

// loadHostStream reads the capture the host-stream personality transmits:
// a non-empty recording at the core's 25 MSPS output rate.
func loadHostStream(path string) (dsp.Samples, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	h, samples, err := capture.Read(file)
	if err != nil {
		return nil, err
	}
	if h.SampleRateHz != txRateHz {
		return nil, fmt.Errorf("%s: capture at %d S/s, the host stream plays at %d", path, h.SampleRateHz, txRateHz)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: empty capture", path)
	}
	return samples, nil
}

func (c *console) inject(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("inject needs a kind")
	}
	switch args[0] {
	case "wifi":
		if len(args) < 4 {
			return fmt.Errorf("inject wifi <mbps> <bytes> <count>")
		}
		mbps, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		nbytes, err := atoiMin(args[2], 0, "byte count")
		if err != nil {
			return err
		}
		count, err := atoiMin(args[3], 1, "frame count")
		if err != nil {
			return err
		}
		var rate wifi.Rate
		found := false
		for _, r := range wifi.AllRates {
			if r.Mbps() == mbps {
				rate, found = r, true
			}
		}
		if !found {
			return fmt.Errorf("no %d Mbps OFDM rate", mbps)
		}
		if err := c.setRate(wifi.SampleRate); err != nil {
			return err
		}
		jammed := 0
		for i := 0; i < count; i++ {
			psdu := wifi.AppendFCS(make([]byte, nbytes))
			frame, err := wifi.Modulate(psdu, wifi.TxConfig{
				Rate: rate, ScramblerSeed: uint8(i%126) + 1,
			})
			if err != nil {
				return err
			}
			buf := c.pad(frame.Clone().Scale(0.3), 512)
			c.jam.MarkFrame(512)
			tx, err := c.process(buf)
			if err != nil {
				return err
			}
			for _, s := range tx {
				if s != 0 {
					jammed++
					break
				}
			}
		}
		fmt.Fprintf(c.out, "injected %d WiFi frames at %d Mbps; %d drew a jamming response\n",
			count, mbps, jammed)
		return nil
	case "wifib":
		if len(args) < 3 {
			return fmt.Errorf("inject wifib <bytes> <count>")
		}
		nbytes, err := atoiMin(args[1], 0, "byte count")
		if err != nil {
			return err
		}
		count, err := atoiMin(args[2], 1, "frame count")
		if err != nil {
			return err
		}
		if err := c.setRate(wifib.SampleRate); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			frame, err := wifib.Modulate(make([]byte, nbytes), wifib.Rate11, uint8(i%126)+1)
			if err != nil {
				return err
			}
			c.jam.MarkFrame(512)
			if _, err := c.process(c.pad(frame.Clone().Scale(0.3), 512)); err != nil {
				return err
			}
		}
		fmt.Fprintf(c.out, "injected %d 802.11b frames at 11 Mbps\n", count)
		return nil
	case "wimax":
		if len(args) < 2 {
			return fmt.Errorf("inject wimax <count>")
		}
		count, err := atoiMin(args[1], 1, "frame count")
		if err != nil {
			return err
		}
		if err := c.setRate(wimax.ActualSampleRate); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			frame, err := wimax.DownlinkFrame(wimax.Config{CellID: 1, Segment: 0}, 16, int64(i))
			if err != nil {
				return err
			}
			buf := c.pad(frame[:20*wimax.SymbolLen].Clone().Scale(0.3), 2048)
			c.jam.MarkFrame(2048)
			if _, err := c.process(buf); err != nil {
				return err
			}
		}
		fmt.Fprintf(c.out, "injected %d WiMAX downlink frames\n", count)
		return nil
	case "idle":
		if len(args) < 2 {
			return fmt.Errorf("inject idle <ms>")
		}
		ms, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return err
		}
		// The whole span is one buffer, so bound it: 1 s at 25 MSPS is
		// already 400 MB of samples.
		if !(ms > 0 && ms <= maxIdleMs) {
			return fmt.Errorf("idle duration %v ms is outside (0, %d]", ms, maxIdleMs)
		}
		n := int(ms / 1000 * float64(c.rate))
		buf := make(dsp.Samples, n)
		for i := range buf {
			buf[i] = complex(c.rng.NormFloat64(), c.rng.NormFloat64()) * 1e-4
		}
		if _, err := c.process(buf); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "streamed %.3g ms of noise floor\n", ms)
		return nil
	default:
		return fmt.Errorf("unknown inject kind %q", args[0])
	}
}

// maxIdleMs is the longest noise-floor span one inject idle command streams.
const maxIdleMs = 1000

// atoiMin parses s as an integer no smaller than lo; what names the value in
// the error.
func atoiMin(s string, lo int, what string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < lo {
		return 0, fmt.Errorf("%s %d is below %d", what, v, lo)
	}
	return v, nil
}

// process streams samples through the platform, tapping the TX output into
// an active recording, the flight recorder's I/Q scope, and the anomaly
// detector (fed synchronously so scripted sessions behave like live ones).
func (c *console) process(rx dsp.Samples) (dsp.Samples, error) {
	if c.flight != nil {
		c.flight.RecordIQ(rx)
	}
	tx, err := c.jam.Process(rx)
	if err != nil {
		return nil, err
	}
	if c.rec != nil {
		c.rec.Append(tx)
	}
	if c.det != nil {
		c.det.FeedSnapshot(c.cycle(), c.jam.Telemetry().Snapshot())
	}
	return tx, nil
}

// cycle reads the 100 MHz hardware clock that stamps the journal's events;
// reset clears the counters, not the clock.
func (c *console) cycle() uint64 {
	return uint64(c.jam.Elapsed() / fpga.ClockPeriod)
}

// pad surrounds a waveform with quiet lead/tail and a touch of noise so the
// detectors see realistic transitions.
func (c *console) pad(wave dsp.Samples, lead int) dsp.Samples {
	buf := make(dsp.Samples, lead+len(wave)+lead)
	copy(buf[lead:], wave)
	for i := range buf {
		buf[i] += complex(c.rng.NormFloat64(), c.rng.NormFloat64()) * 1e-4
	}
	return buf
}

func (c *console) setRate(hz int) error {
	if c.rate == hz {
		return nil
	}
	if err := c.jam.SetSourceRate(hz); err != nil {
		return err
	}
	c.rate = hz
	return nil
}
