package fpga

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRegisterWriteRead(t *testing.T) {
	b := NewRegisterBus()
	if err := b.Write(5, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(5)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("Read = %x, %v", v, err)
	}
}

func TestRegisterZeroReserved(t *testing.T) {
	b := NewRegisterBus()
	if err := b.Write(0, 1); !errors.Is(err, ErrBadRegister) {
		t.Errorf("Write(0) err = %v, want ErrBadRegister", err)
	}
	if _, err := b.Read(0); !errors.Is(err, ErrBadRegister) {
		t.Errorf("Read(0) err = %v, want ErrBadRegister", err)
	}
}

func TestRegisterWriteReadProperty(t *testing.T) {
	b := NewRegisterBus()
	f := func(addr uint8, value uint32) bool {
		if addr == 0 {
			return b.Write(addr, value) != nil
		}
		if err := b.Write(addr, value); err != nil {
			return false
		}
		v, err := b.Read(addr)
		return err == nil && v == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegisterWatcher(t *testing.T) {
	b := NewRegisterBus()
	var got []uint32
	b.Watch(7, func(addr uint8, v uint32) {
		if addr != 7 {
			t.Errorf("watcher got addr %d", addr)
		}
		got = append(got, v)
	})
	b.Write(7, 1)
	b.Write(8, 99) // different register, not watched
	b.Write(7, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("watcher saw %v", got)
	}
}

func TestUsedRegisters(t *testing.T) {
	b := NewRegisterBus()
	log := watchCommits(b)
	for _, a := range []uint8{30, 3, 12, 3} {
		if err := b.Write(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	used := log.used()
	want := []uint8{3, 12, 30}
	if len(used) != len(want) {
		t.Fatalf("used registers = %v", used)
	}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("used registers = %v, want %v", used, want)
		}
	}
	if log.commits != 4 {
		t.Errorf("commits = %d, want 4", log.commits)
	}
}

// commitLog records the writes a bus commits, as its WatchAll hook sees
// them.
type commitLog struct {
	commits uint64
	written [NumUserRegisters]bool
}

// watchCommits installs a commit log on b. It is not safe for concurrent
// writers.
func watchCommits(b *RegisterBus) *commitLog {
	l := &commitLog{}
	b.WatchAll(func(addr uint8, _ uint32) {
		l.commits++
		l.written[addr] = true
	})
	return l
}

// used lists, in address order, the registers committed at least once.
func (l *commitLog) used() []uint8 {
	var used []uint8
	for a := 1; a < NumUserRegisters; a++ {
		if l.written[a] {
			used = append(used, uint8(a))
		}
	}
	return used
}

// TestRegisterBusWatcherConcurrency exercises the full concurrent surface
// the telemetry layer depends on — WatchAll hooks firing while another
// goroutine writes and reads the register file. Run under
// `go test -race` (the CI target does) to prove the bus access log is
// race-free.
func TestRegisterBusWatcherConcurrency(t *testing.T) {
	b := NewRegisterBus()
	var all, addr9 atomic.Uint64
	b.WatchAll(func(a uint8, v uint32) { all.Add(1) })
	b.Watch(9, func(a uint8, v uint32) { addr9.Add(1) })

	const perG = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // host-style writer
		defer wg.Done()
		for i := 0; i < perG; i++ {
			if err := b.Write(uint8(1+i%255), uint32(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // feedback poller
		defer wg.Done()
		for i := 0; i < perG; i++ {
			if _, err := b.Read(uint8(1 + i%255)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := all.Load(); got != perG {
		t.Errorf("WatchAll saw %d writes, want %d", got, perG)
	}
	// Writes cycle addresses 1..255; address 9 is hit for i≡8 (mod 255).
	var want9 uint64
	for i := 0; i < perG; i++ {
		if 1+i%255 == 9 {
			want9++
		}
	}
	if got := addr9.Load(); got != want9 {
		t.Errorf("Watch(9) saw %d writes, want %d", got, want9)
	}
}

// TestWatcherReentrantRegistration is the regression test for the dispatch
// snapshot: a watcher that registers another watcher (or writes the bus)
// from inside its callback must not corrupt the iteration in progress. The
// newly registered watcher only observes writes that start after its
// registration.
func TestWatcherReentrantRegistration(t *testing.T) {
	b := NewRegisterBus()
	var outer, inner, all int
	b.WatchAll(func(a uint8, v uint32) { all++ })
	b.Watch(5, func(a uint8, v uint32) {
		outer++
		if outer == 1 {
			// Reentrant registration mid-dispatch, on the same address.
			b.Watch(5, func(a uint8, v uint32) { inner++ })
			// Reentrant registration of a bus-wide watcher.
			b.WatchAll(func(a uint8, v uint32) { all++ })
			// Reentrant write to a different register from inside dispatch.
			if err := b.Write(6, 0xAA); err != nil {
				t.Errorf("reentrant Write: %v", err)
			}
		}
	})

	if err := b.Write(5, 1); err != nil {
		t.Fatal(err)
	}
	if outer != 1 || inner != 0 {
		t.Errorf("after first write: outer=%d inner=%d, want 1, 0", outer, inner)
	}
	if err := b.Write(5, 2); err != nil {
		t.Fatal(err)
	}
	if outer != 2 || inner != 1 {
		t.Errorf("after second write: outer=%d inner=%d, want 2, 1", outer, inner)
	}
	// WatchAll log: write(5)#1 hits the original only (1), the reentrant
	// write(6) hits both (2), write(5)#2 hits both (2) — 5 total.
	if all != 5 {
		t.Errorf("WatchAll firings = %d, want 5", all)
	}
	if got, err := b.Read(6); err != nil || got != 0xAA {
		t.Errorf("reentrant write landed as %#x, %v", got, err)
	}
}

func TestWriteInterceptor(t *testing.T) {
	b := NewRegisterBus()
	var seen []uint32
	b.Watch(9, func(a uint8, v uint32) { seen = append(seen, v) })
	drops := 0
	b.Intercept(func(addr uint8, value uint32) (uint32, WriteAction) {
		switch value {
		case 1:
			drops++
			return 0, WriteDrop
		case 2:
			return value ^ 0x80, WriteCommit // injected bit error
		}
		return value, WriteCommit
	})

	for _, v := range []uint32{1, 2, 3} {
		if err := b.Write(9, v); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := b.Read(9); got != 3 {
		t.Errorf("final value = %d, want 3", got)
	}
	// Dropped writes don't commit: the watchers see only the other two.
	if len(seen) != 2 || seen[0] != 2^0x80 || seen[1] != 3 {
		t.Errorf("watchers saw %v, want [130 3]", seen)
	}
	if drops != 1 {
		t.Errorf("drops = %d, want 1", drops)
	}
	// Reserved register 0 is rejected before interception.
	called := false
	b.Intercept(func(addr uint8, value uint32) (uint32, WriteAction) {
		called = true
		return value, WriteCommit
	})
	if err := b.Write(0, 1); err == nil || called {
		t.Errorf("Write(0) err=%v intercepted=%v, want error and no interception", err, called)
	}
	b.Intercept(nil)
	if err := b.Write(9, 7); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Read(9); got != 7 {
		t.Errorf("after removing interceptor, value = %d, want 7", got)
	}
}

func TestRegisterBusConcurrency(t *testing.T) {
	b := NewRegisterBus()
	var commits atomic.Uint64
	b.WatchAll(func(uint8, uint32) { commits.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				addr := uint8(1 + (g*31+i)%255)
				_ = b.Write(addr, uint32(i))
				_, _ = b.Read(addr)
			}
		}(g)
	}
	wg.Wait()
	if got := commits.Load(); got != 8000 {
		t.Errorf("commits = %d, want 8000", got)
	}
}
