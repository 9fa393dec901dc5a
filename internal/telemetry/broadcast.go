package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HistRollup is one histogram's headline figures inside a rollup.
type HistRollup struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	Max   uint64 `json:"max"`
}

// Rollup is one cell's periodic digest: the counter block, per-histogram
// headline figures, and the observability-plane tallies (anomaly alerts,
// flight dumps, journal drops, completed engagements).
type Rollup struct {
	// Seq is the tick number, shared by every cell emitted in one tick.
	Seq uint64 `json:"seq"`
	// Cell names the datapath cell the rollup describes.
	Cell string `json:"cell"`
	// Counters is the cell's counter block.
	Counters CounterSnapshot `json:"counters"`
	// Histograms carries the headline figures per latency histogram.
	Histograms []HistRollup `json:"histograms"`
	// Alerts and Dumps count anomaly alerts raised and flight-recorder
	// dumps captured so far; Dropped and Engagements mirror the journal.
	Alerts      uint64 `json:"alerts"`
	Dumps       uint64 `json:"dumps"`
	Dropped     uint64 `json:"dropped"`
	Engagements uint64 `json:"engagements"`
}

// RollupSource produces the per-cell rollups for one stream tick.
type RollupSource func(seq uint64) []Rollup

// Broadcaster serves the live SSE rollup stream (`/stream`) to any number
// of clients: one goroutine pulls the rollup source every interval, marshals
// the tick's payload once — one `rollup` event with a JSON body per cell —
// and fans it out to every subscriber over a bounded per-client queue. A
// subscriber that stops reading — a stalled TCP connection, a wedged
// consumer — fills its queue and is dropped and counted, instead of
// backpressuring the broadcast tick and starving the healthy clients.
type Broadcaster struct {
	interval time.Duration
	source   RollupSource

	mu      sync.Mutex
	clients map[*streamClient]struct{}
	seq     uint64
	stop    chan struct{}
	done    chan struct{}
	// stopped holds from Stop to the next Start: a subscriber arriving then
	// is closed at once rather than left waiting for ticks.
	stopped bool

	dropped atomic.Uint64
}

// streamClientQueue bounds the per-client frame queue: a client more than
// this many ticks behind is considered stalled.
const streamClientQueue = 8

type streamClient struct {
	frames chan []byte
	// stopped is set before frames is closed when the broadcaster stopped,
	// as opposed to dropping the client for stalling.
	stopped bool
}

// NewBroadcaster returns a broadcaster pulling the source every interval
// (1 s when interval <= 0). Call Start to begin ticking.
func NewBroadcaster(interval time.Duration, source RollupSource) *Broadcaster {
	if interval <= 0 {
		interval = time.Second
	}
	return &Broadcaster{
		interval: interval,
		source:   source,
		clients:  make(map[*streamClient]struct{}),
	}
}

// DroppedClients returns how many stalled subscribers have been dropped —
// exported as the stream_dropped_clients metric.
func (b *Broadcaster) DroppedClients() uint64 { return b.dropped.Load() }

// Start launches the broadcast loop (no-op when already running).
func (b *Broadcaster) Start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop != nil {
		return
	}
	b.stopped = false
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	go b.run(b.stop, b.done)
}

// Stop halts the loop and disconnects every subscriber, present and
// future, until the next Start.
func (b *Broadcaster) Stop() {
	b.mu.Lock()
	if b.stop == nil {
		b.mu.Unlock()
		return
	}
	stop, done := b.stop, b.done
	b.stop, b.done = nil, nil
	b.stopped = true
	b.mu.Unlock()
	close(stop)
	<-done
	b.mu.Lock()
	for c := range b.clients {
		c.stopped = true
		close(c.frames)
		delete(b.clients, c)
	}
	b.mu.Unlock()
}

func (b *Broadcaster) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(b.interval)
	defer t.Stop()
	b.tick()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.tick()
		}
	}
}

// tick marshals the tick's rollups once and enqueues the frame to every
// subscriber without ever blocking: a full queue drops that subscriber.
func (b *Broadcaster) tick() {
	b.mu.Lock()
	seq := b.seq
	b.seq++
	b.mu.Unlock()

	frame := marshalFrame(b.source(seq))
	if frame == nil {
		return
	}

	b.mu.Lock()
	for c := range b.clients {
		select {
		case c.frames <- frame:
		default:
			delete(b.clients, c)
			close(c.frames)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// marshalFrame renders one tick's rollups as a single SSE frame.
func marshalFrame(rollups []Rollup) []byte {
	var frame []byte
	for _, r := range rollups {
		body, err := json.Marshal(r)
		if err != nil {
			return nil
		}
		frame = append(frame, "event: rollup\ndata: "...)
		frame = append(frame, body...)
		frame = append(frame, "\n\n"...)
	}
	return frame
}

// subscribe registers a new client. The first frame is generated
// immediately so a consumer never waits a full interval for data. After
// Stop the client comes back already closed.
func (b *Broadcaster) subscribe() *streamClient {
	c := &streamClient{frames: make(chan []byte, streamClientQueue)}
	b.mu.Lock()
	seq := b.seq
	b.seq++
	b.mu.Unlock()
	frame := marshalFrame(b.source(seq))

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		c.stopped = true
		close(c.frames)
		return c
	}
	// The queue is empty, so this send cannot block; queuing the frame
	// before registering keeps it ahead of every tick's.
	c.frames <- frame
	b.clients[c] = struct{}{}
	return c
}

// unsubscribe removes a client that disconnected on its own.
func (b *Broadcaster) unsubscribe(c *streamClient) {
	b.mu.Lock()
	if _, ok := b.clients[c]; ok {
		delete(b.clients, c)
		close(c.frames)
	}
	b.mu.Unlock()
}

// ServeHTTP streams broadcast frames to the client until it disconnects, is
// dropped for stalling, or the broadcaster stops.
func (b *Broadcaster) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	c := b.subscribe()
	defer b.unsubscribe(c)
	for {
		select {
		case <-req.Context().Done():
			return
		case frame, ok := <-c.frames:
			if !ok {
				// A final comment line tells a live consumer why.
				reason := ": dropped (slow client)\n\n"
				if c.stopped {
					reason = ": stream stopped\n\n"
				}
				fmt.Fprint(w, reason)
				flusher.Flush()
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
