package fpga

import (
	"fmt"
	"sync"
	"time"
)

// The UHD user register bus (paper §2.2): an 8-bit address bus and a 32-bit
// data bus providing up to 255 programmable registers inside the custom DSP
// core. Host applications program detector coefficients, thresholds and
// jammer settings through it at runtime; the paper measures its write
// latency at "hundreds of ns" (§4.3), which is what makes on-the-fly jammer
// personality changes possible without reprogramming the FPGA.

// NumUserRegisters is the size of the user register file. Address 0 is
// reserved by the UHD design, leaving 255 usable registers.
const NumUserRegisters = 256

// RegWriteLatency is the modeled latency of one register write through the
// UHD user setting bus.
const RegWriteLatency = 300 * time.Nanosecond

// ErrBadRegister is returned for accesses outside the register file.
var ErrBadRegister = fmt.Errorf("fpga: register address out of range")

// RegWatcher observes register writes; blocks register watchers on their
// control addresses to pick up configuration as soon as the host programs it.
type RegWatcher func(addr uint8, value uint32)

// WriteAction is a WriteInterceptor's disposition for one register write.
type WriteAction uint8

const (
	// WriteCommit lets the write proceed (with the possibly rewritten value).
	WriteCommit WriteAction = iota
	// WriteDrop silently discards the write: the register file keeps its old
	// value and no watcher fires, exactly as if the setting-bus transaction
	// were lost in flight.
	WriteDrop
)

// WriteInterceptor inspects every register write before it commits and may
// rewrite the value or drop the transaction entirely. It models setting-bus
// glitches (lost writes, bit errors) for fault-injection harnesses; see
// internal/chaos. The interceptor is called outside the bus lock and must
// not call back into the same bus unless it handles its own reentrancy.
type WriteInterceptor func(addr uint8, value uint32) (uint32, WriteAction)

// RegisterBus is the user register file plus write-latency accounting.
// It is safe for concurrent use: the host-side application and the sample
// clocked core may touch it from different goroutines.
type RegisterBus struct {
	mu          sync.RWMutex
	regs        [NumUserRegisters]uint32
	written     [NumUserRegisters]bool
	watchers    map[uint8][]RegWatcher
	watchersAll []RegWatcher
	intercept   WriteInterceptor
	writes      uint64
	reads       uint64
	dropped     uint64
}

// NewRegisterBus returns an empty register file.
func NewRegisterBus() *RegisterBus {
	return &RegisterBus{watchers: make(map[uint8][]RegWatcher)}
}

// Write programs one 32-bit register. Address 0 is reserved and faults.
func (b *RegisterBus) Write(addr uint8, value uint32) error {
	if addr == 0 {
		return fmt.Errorf("%w: register 0 is reserved by UHD", ErrBadRegister)
	}
	b.mu.RLock()
	icept := b.intercept
	b.mu.RUnlock()
	if icept != nil {
		v, action := icept(addr, value)
		if action == WriteDrop {
			b.mu.Lock()
			b.dropped++
			b.mu.Unlock()
			return nil
		}
		value = v
	}
	b.mu.Lock()
	b.regs[addr] = value
	b.written[addr] = true
	b.writes++
	// Snapshot copies of the watcher lists so dispatch (outside the lock)
	// stays safe when a watcher reentrantly registers another watcher —
	// append may grow the shared backing arrays mid-iteration otherwise.
	watchers := append([]RegWatcher(nil), b.watchers[addr]...)
	all := append([]RegWatcher(nil), b.watchersAll...)
	b.mu.Unlock()
	for _, w := range all {
		w(addr, value)
	}
	for _, w := range watchers {
		w(addr, value)
	}
	return nil
}

// Read returns the current value of a register.
func (b *RegisterBus) Read(addr uint8) (uint32, error) {
	if addr == 0 {
		return 0, fmt.Errorf("%w: register 0 is reserved by UHD", ErrBadRegister)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads++
	return b.regs[addr], nil
}

// Watch registers a callback invoked after every write to addr.
func (b *RegisterBus) Watch(addr uint8, w RegWatcher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.watchers[addr] = append(b.watchers[addr], w)
}

// WatchAll registers a callback invoked before per-address watchers on
// every write — the bus access log the telemetry layer taps.
func (b *RegisterBus) WatchAll(w RegWatcher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.watchersAll = append(b.watchersAll, w)
}

// Intercept installs a write interceptor (nil removes it). Only one
// interceptor may be installed at a time; fault harnesses compose their
// fault classes inside a single closure.
func (b *RegisterBus) Intercept(f WriteInterceptor) {
	b.mu.Lock()
	b.intercept = f
	b.mu.Unlock()
}
