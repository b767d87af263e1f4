// Package store holds the two storage seams of certified obvent
// delivery (paper §3.1.2: "even if a notifiable temporarily disconnects
// or fails, it will eventually deliver the obvent", and §3.4.1: durable
// subscriptions outliving their hosting process, re-identified via
// activate(id)) and their in-memory implementations.
//
// The publisher side is the Log interface: an outbox that tracks, per
// durable consumer, what has not been acknowledged. It has two
// implementations. MemLog, here, is what a certified class runs on in a
// domain without a durability directory — its state survives a
// subscriber's disconnection, not this process — and the oracle the
// other is tested against (TestLogConformance). durable.Outbox is the
// crash-recoverable one, on segment logs.
//
// The subscriber side is multicast.Stager: record an incoming event,
// deduplicated by ID, before it is acknowledged. MemSet, here, is the
// in-memory implementation; durable.Inbox is the crash-recoverable one.
package store

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Entry is one durable record: an opaque payload under a unique ID.
// The payload's bytes are immutable from the moment the entry is given
// to a Log (see Log.Add). Offset is the log's to assign: Add ignores
// the caller's and returns its own, Pending fills it in.
type Entry struct {
	ID      string
	Payload []byte
	Offset  uint64
}

// Run is a run of consecutive offsets, both ends included.
type Run struct{ Lo, Hi uint64 }

// ErrUnknownConsumer is returned when acknowledging or querying a
// consumer that was never registered.
var ErrUnknownConsumer = errors.New("store: unknown consumer")

// Log is a durable append log with per-consumer acknowledgement
// tracking: an entry is retired once every registered consumer has
// acknowledged it. Implementations are safe for concurrent use.
//
// Offsets start at 1, ascend in append order, and are never reused by
// a log that is open; they are what a subscriber acknowledges by.
//
// Ownership of payloads: Add takes e.Payload — a log may keep the
// slice instead of copying it, so the caller must not write to it
// afterwards (it may go on reading and sending it). Pending returns
// read-only entries — their payloads may be the log's own, shared with
// every other Pending result, so a caller forwards them and never
// writes to them. A slice of runs stays the caller's: AckRuns reads it
// and keeps nothing of it.
type Log interface {
	// Add stores an entry, taking its payload, and returns its offset.
	// Adding an ID the log holds returns the offset it has (idempotent).
	Add(e Entry) (offset uint64, err error)
	// RegisterConsumer makes the log track acknowledgements for the
	// given durable consumer ID. Registration is idempotent; entries
	// appended before registration are owed to the consumer as well.
	RegisterConsumer(id string) error
	// UnregisterConsumer stops tracking the consumer.
	UnregisterConsumer(id string) error
	// Consumers returns the sorted registered consumer IDs.
	Consumers() ([]string, error)
	// AckRuns marks the entries at the offsets of runs acknowledged by
	// the consumer. Runs may overlap, repeat, and name offsets the log
	// does not hold (retired, or beyond the last one): those are ignored.
	AckRuns(consumer string, runs []Run) error
	// Pending returns, in append order, the entries not yet
	// acknowledged by the consumer; their payloads are read-only.
	Pending(consumer string) ([]Entry, error)
	// GC drops entries acknowledged by all registered consumers and
	// returns how many were dropped. With nobody registered it drops
	// nothing. A log may retire such entries earlier, as they are
	// acknowledged, or later, a sealed segment at a time.
	GC() (int, error)
	// Len returns the number of entries the log holds: appended and not
	// yet retired.
	Len() int
	// Close releases resources. The log must not be used afterwards.
	Close() error
}

// MemLog is the in-memory Log: what a certified class of a domain
// without a durability directory publishes from, and the oracle
// durable.Outbox is tested against. It holds what is unacknowledged,
// not what was ever appended: AckRuns retires an entry the moment the
// last registered consumer acknowledges it. The zero value is not
// usable; create with NewMemLog.
type MemLog struct {
	mu        sync.Mutex
	last      uint64                     // the last offset assigned
	order     *list.List                 // of Entry, in append order
	byID      map[string]uint64          // the offsets of the entries of order, by ID
	entries   map[uint64]*list.Element   // the entries of order, by offset
	consumers map[string]map[uint64]bool // consumer -> live offsets it acknowledged
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog {
	return &MemLog{
		order:     list.New(),
		byID:      make(map[string]uint64),
		entries:   make(map[uint64]*list.Element),
		consumers: make(map[string]map[uint64]bool),
	}
}

// Add implements Log.
func (l *MemLog) Add(e Entry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off, ok := l.byID[e.ID]; ok {
		return off, nil
	}
	l.last++
	e.Offset = l.last
	l.byID[e.ID] = e.Offset
	l.entries[e.Offset] = l.order.PushBack(e) // the caller's payload, kept (Log)
	return e.Offset, nil
}

// RegisterConsumer implements Log.
func (l *MemLog) RegisterConsumer(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.consumers[id]; !ok {
		l.consumers[id] = make(map[uint64]bool)
	}
	return nil
}

// UnregisterConsumer implements Log.
func (l *MemLog) UnregisterConsumer(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.consumers, id)
	return nil
}

// Consumers implements Log.
func (l *MemLog) Consumers() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.consumers))
	for id := range l.consumers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// AckRuns implements Log, and retires each entry whose acknowledgements
// this one completes (GC's rule, applied when it becomes true). An
// offset the log does not hold — retired already, or never assigned —
// is nothing to book: a duplicate acknowledgement leaves no trace, and
// a run costs what it covers of the live span, whatever it claims.
func (l *MemLog) AckRuns(consumer string, runs []Run) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	acked, ok := l.consumers[consumer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	if l.order.Len() == 0 {
		return nil
	}
	first := l.order.Front().Value.(Entry).Offset
	for _, r := range runs {
		for off := max(r.Lo, first); off <= min(r.Hi, l.last); off++ {
			if _, ok := l.entries[off]; ok {
				acked[off] = true
				l.retireIfAckedByAllLocked(off)
			}
		}
	}
	return nil
}

// retireIfAckedByAllLocked applies the retirement rule to a live entry:
// every registered consumer has acknowledged it, and somebody is
// registered (with nobody registered the log retains everything, for
// whoever registers next). Its acknowledgements go with it.
func (l *MemLog) retireIfAckedByAllLocked(off uint64) bool {
	for _, acked := range l.consumers {
		if !acked[off] {
			return false
		}
	}
	if len(l.consumers) == 0 {
		return false
	}
	delete(l.byID, l.order.Remove(l.entries[off]).(Entry).ID)
	delete(l.entries, off)
	for _, acked := range l.consumers {
		delete(acked, off)
	}
	return true
}

// Pending implements Log.
func (l *MemLog) Pending(consumer string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acked, ok := l.consumers[consumer]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	var out []Entry
	for el := l.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(Entry); !acked[e.Offset] {
			out = append(out, e)
		}
	}
	return out, nil
}

// GC implements Log. AckRuns has retired what an acknowledgement
// completed; left for GC is what an UnregisterConsumer made eligible.
func (l *MemLog) GC() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dropped := 0
	for el := l.order.Front(); el != nil; {
		next := el.Next() // retiring el unlinks it
		if l.retireIfAckedByAllLocked(el.Value.(Entry).Offset) {
			dropped++
		}
		el = next
	}
	return dropped, nil
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// Len implements Log.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
