package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// layers are the program layers a traced run attributes time and bytes to,
// in report order. Each name is the span the benchmark opens around the
// public calls into that layer:
//
//	wifi.tx               wifi.Modulate / ModulatePseudoFrame and frame framing
//	wifi.rx               wifi.Demodulate + CheckFCS (sync, FFT, Viterbi)
//	dsp.resample          dsp.Resampler.Process, both 20→25 (DDC) and 25→20 (DUC)
//	dsp.noise             dsp.NoiseSource draws
//	core                  N210.Process / Framework.Process at the native 25 MSPS
//	testbed               channel composition: path-gain Clone/Scale/Add,
//	                      burst padding, SIR and airtime accounting
//	impair                impair.Chain.ProcessSample
//	mac                   self time of mac.Sequencer.SendMSDU
//	experiments.reaction  experiments.MeasureReactionLatency (one fleet cell)
//	fleet.snapshot        fleet.Aggregator.Snapshot
//	fleet.reconcile       experiments.FleetObsResult.Reconcile
//	fleet.scrape          fleet WriteOpenMetrics + LintMetrics
var layers = []string{
	"wifi.tx", "wifi.rx", "dsp.resample", "dsp.noise", "core", "testbed",
	"impair", "mac", "experiments.reaction", "fleet.snapshot",
	"fleet.reconcile", "fleet.scrape",
}

// rootSpan is the span around one whole traced item; its self time is the
// item's work outside every layer span, reported as other.share.
const rootSpan = "item"

// span is one traced call. Times are nanoseconds since the tracer started;
// AllocBytes is the heap allocated while the span was open, children
// included.
type span struct {
	Name       string `json:"name"`
	Item       int    `json:"item"`
	Parent     int    `json:"parent"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Samples    int    `json:"samples"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory around the benchmark's calls into each
// layer, plus named counts taken at the same boundaries. It is used from
// one goroutine.
type tracer struct {
	t0     time.Time
	item   int
	spans  []span
	open   []int
	alloc  []metrics.Sample
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		spans:  make([]span, 0, 1<<16),
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		counts: map[string]float64{},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one and returns its id.
// The allocation counter is read before the clock so that reading it is
// charged to the parent, not to the span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	bytes := t.allocBytes()
	t.spans = append(t.spans, span{
		Name: name, Item: t.item, Parent: parent,
		AllocBytes: bytes, StartNS: int64(time.Since(t.t0)),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, recording the number of baseband samples the call
// covered. Spans still open inside it, left by a call that failed, close
// with it.
func (t *tracer) end(id, samples int) {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	s.AllocBytes = t.allocBytes() - s.AllocBytes
	s.Samples = samples
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		if top == id {
			break
		}
	}
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// layerStat is one layer's totals over a traced run.
type layerStat struct {
	calls     int
	selfNS    int64
	samples   int64
	selfBytes int64
	durNS     []float64
}

// aggregate folds the spans into per-layer self time and bytes. A span's
// self time is its duration minus its children's; wallNS is the summed
// duration of the item roots.
func (t *tracer) aggregate() (stats map[string]*layerStat, wallNS int64) {
	childNS := make([]int64, len(t.spans))
	childBytes := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
			childBytes[s.Parent] += s.AllocBytes
		}
	}
	stats = map[string]*layerStat{}
	for i, s := range t.spans {
		st := stats[s.Name]
		if st == nil {
			st = &layerStat{}
			stats[s.Name] = st
		}
		dur := s.EndNS - s.StartNS
		st.calls++
		st.selfNS += dur - childNS[i]
		st.samples += int64(s.Samples)
		st.selfBytes += int64(s.AllocBytes) - int64(childBytes[i])
		st.durNS = append(st.durNS, float64(dur))
		if s.Parent < 0 {
			wallNS += dur
		}
	}
	return stats, wallNS
}

// layerMetrics turns the spans and counts of a traced run of items items
// into the per-layer metrics; untraced is the one-worker wall of the same
// items, against which the tracing overhead is reported.
func (t *tracer) layerMetrics(items int, untraced time.Duration) map[string]float64 {
	stats, wallNS := t.aggregate()
	out := map[string]float64{}
	for _, name := range layers {
		st := stats[name]
		if st == nil {
			st = &layerStat{}
		}
		out[name+".calls"] = float64(st.calls) / float64(items)
		out[name+".share"] = ratio(float64(st.selfNS), float64(wallNS))
		out[name+".ns_per_sample"] = ratio(float64(st.selfNS), float64(st.samples))
		out[name+".B_per_call"] = ratio(float64(st.selfBytes), float64(st.calls))
	}
	if root := stats[rootSpan]; root != nil {
		out["other.share"] = ratio(float64(root.selfNS), float64(wallNS))
	}
	out["core.p99_us"] = 0
	if st := stats["core"]; st != nil {
		if v, ok := percentile(st.durNS, 990); ok {
			out["core.p99_us"] = v / 1e3
		}
	}
	c := t.counts
	out["wifi.rx.fcs_ok_frac"] = ratio(c["wifi.rx.fcs_ok"], float64(statCalls(stats, "wifi.rx")))
	out["mac.attempts_per_packet"] = ratio(c["mac.attempts"], float64(statCalls(stats, "mac")))
	out["core.jam_sample_frac"] = ratio(c["core.jam_samples"], c["core.samples"])
	out["trace_overhead_pct"] = overheadPct(float64(wallNS), float64(untraced))
	return out
}

func statCalls(stats map[string]*layerStat, name string) int {
	if st := stats[name]; st != nil {
		return st.calls
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the spans as JSON to dir/trace-<workload>.json.
func (t *tracer) writeTrace(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Spans    []span   `json:"spans"`
		Layers   []string `json:"layers"`
	}{workload, seed, t.spans, layers}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
