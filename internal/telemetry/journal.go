package telemetry

// Journal is a bounded ring buffer of datapath events. When full, the
// oldest events are overwritten — a long run keeps the most recent window,
// which is what a post-mortem trace wants. Its storage starts empty and
// grows as events arrive, to journalFirstCap events and then by doubling up
// to the depth, so a run that journals a few dozen events does not pay for
// the whole ring: appends allocate at most 1 + ⌈log₂(depth/journalFirstCap)⌉
// times (11 at DefaultJournalDepth), and never once the ring is full. Not
// safe for concurrent use on its own; the Live recorder serializes access.
type Journal struct {
	buf     []Event // the held events; a ring once it holds depth
	depth   int
	next    int // position of the next write once full
	dropped uint64
}

// DefaultJournalDepth bounds the journal at 64k events (2 MiB of 32-byte
// events).
const DefaultJournalDepth = 1 << 16

// journalFirstCap is the journal's first allocation, in events: a fleet
// cell journals ~42.
const journalFirstCap = 64

// NewJournal returns a journal holding up to depth events (DefaultJournalDepth
// when depth <= 0).
func NewJournal(depth int) *Journal {
	if depth <= 0 {
		depth = DefaultJournalDepth
	}
	return &Journal{depth: depth}
}

// Append records one event, overwriting the oldest when full.
func (j *Journal) Append(e Event) {
	if len(j.buf) == j.depth {
		j.dropped++
		j.buf[j.next] = e
		j.next++
		if j.next == j.depth {
			j.next = 0
		}
		return
	}
	if len(j.buf) == cap(j.buf) {
		j.buf = append(make([]Event, 0, min(max(2*cap(j.buf), journalFirstCap), j.depth)), j.buf...)
	}
	j.buf = append(j.buf, e)
}

// Len returns the number of events currently held.
func (j *Journal) Len() int { return len(j.buf) }

// Dropped returns how many events were overwritten by ring wrap-around.
func (j *Journal) Dropped() uint64 { return j.dropped }

// Events returns the held events oldest-first as a fresh slice.
func (j *Journal) Events() []Event {
	out := make([]Event, 0, len(j.buf))
	out = append(out, j.buf[j.next:]...)
	return append(out, j.buf[:j.next]...)
}

// Reset empties the journal without releasing its storage.
func (j *Journal) Reset() {
	j.buf = j.buf[:0]
	j.next = 0
	j.dropped = 0
}
