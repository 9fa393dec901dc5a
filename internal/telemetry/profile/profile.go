// Package profile is the continuous-profiling leg of the observability
// plane: a Sampler that periodically captures CPU and heap profiles to a
// directory during long runs (jamlab serving sessions, experiment
// campaigns) and, when stopped, summarizes what it wrote together with the
// process's memory and GC state (jamlab prints that Summary at shutdown).
// The pprof files are standard `go tool pprof` inputs; the Summary is
// small and JSON-friendly.
package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Summary digests the process state and what a Sampler captured.
type Summary struct {
	// HeapAllocBytes and TotalAllocBytes are live and cumulative heap
	// usage; SysBytes is what the runtime took from the OS.
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	SysBytes        uint64 `json:"sys_bytes"`
	// HeapObjects is the live object count.
	HeapObjects uint64 `json:"heap_objects"`
	// NumGC counts completed GC cycles; GCPauseTotalNS their total
	// stop-the-world pause time.
	NumGC          uint32 `json:"num_gc"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	// NumGoroutine is the live goroutine count at capture.
	NumGoroutine int `json:"num_goroutine"`
	// CPUProfiles and HeapProfiles count the files the Sampler wrote.
	CPUProfiles  int `json:"cpu_profiles,omitempty"`
	HeapProfiles int `json:"heap_profiles,omitempty"`
	// Dir is the Sampler's output directory.
	Dir string `json:"dir,omitempty"`
}

// capture summarizes the process's memory/GC state; Stop adds the
// Sampler's fields.
func capture() Summary {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return Summary{
		HeapAllocBytes:  m.HeapAlloc,
		TotalAllocBytes: m.TotalAlloc,
		SysBytes:        m.Sys,
		HeapObjects:     m.HeapObjects,
		NumGC:           m.NumGC,
		GCPauseTotalNS:  m.PauseTotalNs,
		NumGoroutine:    runtime.NumGoroutine(),
	}
}

// Sampler periodically captures heap and CPU profiles. Start it once;
// Stop returns the final Summary.
type Sampler struct {
	dir string
	// interval is the capture cadence; each CPU profile lasts cpuWindow,
	// at most interval/2 so capture never overruns the cadence.
	interval, cpuWindow time.Duration

	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	cpu  int
	heap int
	err  error // first capture error, reported by Stop
}

// NewSampler returns an unstarted sampler that captures into dir (created
// if missing) every 30 s, each CPU profile 5 s long.
func NewSampler(dir string) *Sampler {
	return &Sampler{
		dir:       dir,
		interval:  30 * time.Second,
		cpuWindow: 5 * time.Second,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start creates the output directory and launches the capture loop.
func (s *Sampler) Start() error {
	if s.dir == "" {
		return fmt.Errorf("profile: no output directory")
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	go s.loop()
	return nil
}

func (s *Sampler) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.captureOnce()
		}
	}
}

// captureOnce writes one heap profile and one CPU profile window.
func (s *Sampler) captureOnce() {
	s.mu.Lock()
	heapN, cpuN := s.heap+1, s.cpu+1
	s.mu.Unlock()

	if err := s.writeHeap(heapN); err != nil {
		s.fail(err)
		return
	}
	ok := true
	if err := s.writeCPU(cpuN); err != nil {
		s.fail(err)
		ok = false
	}
	s.mu.Lock()
	s.heap = heapN
	if ok {
		s.cpu = cpuN
	}
	s.mu.Unlock()
}

func (s *Sampler) writeHeap(n int) error {
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("heap_%04d.pprof", n)))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation data
	return pprof.WriteHeapProfile(f)
}

func (s *Sampler) writeCPU(n int) error {
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("cpu_%04d.pprof", n)))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is active (e.g. a /debug/pprof/profile
		// scrape); skip this window rather than fight over it.
		return err
	}
	select {
	case <-time.After(s.cpuWindow):
	case <-s.stop:
	}
	pprof.StopCPUProfile()
	return nil
}

func (s *Sampler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Stop halts the loop, waits for any in-flight capture, and returns the
// final summary plus the first capture error (nil when all captures
// succeeded).
func (s *Sampler) Stop() (Summary, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := capture()
	sum.CPUProfiles = s.cpu
	sum.HeapProfiles = s.heap
	sum.Dir = s.dir
	return sum, s.err
}
