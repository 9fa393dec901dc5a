package fpga

import (
	"encoding/binary"
	"testing"
)

// FuzzRegisterBus drives the register file with an arbitrary write script —
// five bytes per operation: one address byte plus a little-endian 32-bit
// value — while a write interceptor and watchers are armed. The contract
// under fuzz: the bus never panics, register 0 is always rejected, readback
// always reflects the last committed value, and the write/drop counters
// account for every transaction exactly once.
func FuzzRegisterBus(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 4, 0x17, 0xE8, 0x03, 0x00, 0x00, 0x0F, 0xAA, 0xAA, 0xAA, 0xAA})
	f.Add([]byte("register bus fuzz script: addresses and values"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		b := NewRegisterBus()

		// Interceptor exercising every disposition: drop value%5==0, flip a
		// bit on value%5==1, pass the rest through untouched.
		b.Intercept(func(addr uint8, value uint32) (uint32, WriteAction) {
			switch value % 5 {
			case 0:
				return value, WriteDrop
			case 1:
				return value ^ 0x40, WriteCommit
			default:
				return value, WriteCommit
			}
		})

		// A watcher that reentrantly registers more watchers mid-dispatch —
		// the historical deadlock/corruption case — plus an all-watcher that
		// keeps its own commit count for reconciliation.
		var allFired, addrFired uint64
		b.WatchAll(func(uint8, uint32) { allFired++ })
		b.Watch(7, func(uint8, uint32) {
			addrFired++
			b.Watch(7, func(uint8, uint32) { addrFired++ })
		})

		model := make(map[uint8]uint32)
		var commits, drops uint64
		for pos := 0; pos+5 <= len(script); pos += 5 {
			addr := script[pos]
			value := binary.LittleEndian.Uint32(script[pos+1 : pos+5])
			err := b.Write(addr, value)
			if addr == 0 {
				if err == nil {
					t.Fatal("write to reserved register 0 accepted")
				}
				continue
			}
			if err != nil {
				t.Fatalf("write(%d, %#x) failed: %v", addr, value, err)
			}
			switch value % 5 {
			case 0:
				drops++
			case 1:
				model[addr] = value ^ 0x40
				commits++
			default:
				model[addr] = value
				commits++
			}
		}

		if _, err := b.Read(0); err == nil {
			t.Fatal("read of reserved register 0 accepted")
		}
		for addr, want := range model {
			got, err := b.Read(addr)
			if err != nil {
				t.Fatalf("read(%d) failed: %v", addr, err)
			}
			if got != want {
				t.Fatalf("register %d reads %#x, want last committed %#x", addr, got, want)
			}
		}
		if b.writes != commits {
			t.Fatalf("writes = %d, want %d commits", b.writes, commits)
		}
		if b.dropped != drops {
			t.Fatalf("dropped = %d, want %d", b.dropped, drops)
		}
		if allFired != commits {
			t.Fatalf("all-watcher fired %d times, want once per commit (%d)", allFired, commits)
		}
		if used := usedRegisters(b); len(used) != len(model) {
			t.Fatalf("used registers has %d entries, want %d", len(used), len(model))
		}
	})
}
