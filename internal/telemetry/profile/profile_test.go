package profile

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCaptureSummaryPopulated(t *testing.T) {
	s := capture()
	if s.HeapAllocBytes == 0 || s.TotalAllocBytes == 0 || s.SysBytes == 0 {
		t.Errorf("empty memory figures: %+v", s)
	}
	if s.NumGoroutine < 1 {
		t.Errorf("goroutines = %d", s.NumGoroutine)
	}
	if s.CPUProfiles != 0 || s.HeapProfiles != 0 || s.Dir != "" {
		t.Errorf("capture carries sampler fields: %+v", s)
	}
}

func TestSamplerWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	s := NewSampler(dir)
	s.interval, s.cpuWindow = 20*time.Millisecond, 5*time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	deadline := time.Now().Add(120 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += x*31 + 7
	}
	_ = x

	sum, err := s.Stop()
	if err != nil {
		t.Fatalf("sampler error: %v", err)
	}
	if sum.HeapProfiles < 1 || sum.CPUProfiles < 1 {
		t.Fatalf("profiles captured = heap:%d cpu:%d, want >= 1 each", sum.HeapProfiles, sum.CPUProfiles)
	}
	if sum.Dir != dir {
		t.Errorf("summary dir = %q, want %q", sum.Dir, dir)
	}
	heap, _ := filepath.Glob(filepath.Join(dir, "heap_*.pprof"))
	cpu, _ := filepath.Glob(filepath.Join(dir, "cpu_*.pprof"))
	if len(heap) != sum.HeapProfiles || len(cpu) != sum.CPUProfiles {
		t.Errorf("files on disk heap:%d cpu:%d vs summary heap:%d cpu:%d",
			len(heap), len(cpu), sum.HeapProfiles, sum.CPUProfiles)
	}
	for _, f := range append(heap, cpu...) {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s empty or unreadable: %v", f, err)
		}
	}
}

func TestSamplerRequiresDir(t *testing.T) {
	s := NewSampler("")
	if err := s.Start(); err == nil {
		t.Fatal("Start() with no Dir succeeded")
	}
}
