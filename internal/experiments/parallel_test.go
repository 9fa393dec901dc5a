package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withParallelism runs f with the pool fixed at width n, restoring the
// previous setting afterwards.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		withParallelism(t, workers, func() {
			const n = 100
			var hits [n]atomic.Int32
			if err := forEach(n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
				}
			}
		})
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := forEach(0, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := forEach(-3, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			err := forEach(32, func(i int) error {
				switch i {
				case 7:
					return errLow
				case 20:
					return errHigh
				}
				return nil
			})
			if err != errLow {
				t.Fatalf("workers=%d: got %v, want %v", workers, err, errLow)
			}
		})
	}
}

func TestForEachConcurrencyBounded(t *testing.T) {
	const width = 3
	withParallelism(t, width, func() {
		var cur, peak atomic.Int32
		var mu sync.Mutex
		if err := forEach(64, func(i int) error {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			for j := 0; j < 1000; j++ {
				_ = j // busy-spin long enough for workers to overlap
			}
			cur.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > width {
			t.Fatalf("observed %d concurrent items, pool width %d", p, width)
		}
	})
}

func TestSetParallelismFloor(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("SetParallelism(0): got %d, want GOMAXPROCS=%d", got, want)
	}
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Fatalf("SetParallelism(5): got %d", got)
	}
}

// TestCharacterizeDetectionDeterministicAcrossWidths is the determinism
// regression for the parallel harness: a fixed-seed characterization must
// return byte-identical results at every pool width, because each SNR point
// derives all of its randomness from the config and its own parameters.
func TestCharacterizeDetectionDeterministicAcrossWidths(t *testing.T) {
	cfg := DetectionConfig{
		EnergyThresholdDB: 10,
		Kind:              FullFrame,
		FramesPerPoint:    6,
		SNRsDB:            []float64{-4, 0, 4, 8, 12},
		Seed:              1234,
	}
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	var ref []byte
	for _, w := range widths {
		withParallelism(t, w, func() {
			res, err := CharacterizeDetection(cfg)
			if err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf
				return
			}
			if string(buf) != string(ref) {
				t.Fatalf("width %d result differs from width %d:\n%s\nvs\n%s",
					w, widths[0], buf, ref)
			}
		})
	}
}

// TestSelectivityDeterministicAcrossWidths covers the matrix experiment the
// same way: every (template, signal) cell is seeded independently.
func TestSelectivityDeterministicAcrossWidths(t *testing.T) {
	var ref []byte
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		withParallelism(t, w, func() {
			res, err := Selectivity(3, 15, 9)
			if err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf
				return
			}
			if string(buf) != string(ref) {
				t.Fatalf("width %d selectivity differs:\n%s\nvs\n%s", w, buf, ref)
			}
		})
	}
}

// RunFigures emits the figures in list order whatever order they finish in,
// sequentially or concurrently, and stops at the first failing one.
func TestRunFiguresOrderAndError(t *testing.T) {
	boom := errors.New("boom")
	figs := []Figure{
		{Name: "slow", Run: func(r *Records, _ Budget) error {
			time.Sleep(20 * time.Millisecond)
			r.put("slow", 1)
			return nil
		}},
		{Name: "fast", Run: func(r *Records, b Budget) error {
			r.put("fast_frames", b.Frames)
			return nil
		}},
		{Name: "bad", Run: func(*Records, Budget) error { return boom }},
		{Name: "after", Run: func(r *Records, _ Budget) error {
			r.put("after", 2)
			return nil
		}},
	}
	for _, w := range []int{1, 4} {
		withParallelism(t, w, func() {
			var got []string
			err := RunFigures(figs, Budget{Frames: 7}, func(f Figure, rec string, _ time.Duration) error {
				got = append(got, f.Name+":"+rec)
				return nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("width %d: error %v, want %v", w, err, boom)
			}
			if want := []string{"slow:slow=1\n", "fast:fast_frames=7\n"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("width %d: emitted %q, want %q", w, got, want)
			}
			stop := errors.New("stop")
			n := 0
			err = RunFigures(figs, Budget{}, func(Figure, string, time.Duration) error {
				n++
				return stop
			})
			if err != stop || n != 1 {
				t.Errorf("width %d: emit error %v after %d emits, want %v after 1", w, err, n, stop)
			}
		})
	}
}
