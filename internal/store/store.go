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
// to a Log (see Log.Append).
type Entry struct {
	ID      string
	Payload []byte
}

// ErrUnknownConsumer is returned when acknowledging or querying a
// consumer that was never registered.
var ErrUnknownConsumer = errors.New("store: unknown consumer")

// Log is a durable append log with per-consumer acknowledgement
// tracking: an entry is retired once every registered consumer has
// acknowledged it. Implementations are safe for concurrent use.
//
// Ownership of payloads: Append takes e.Payload — a log may keep the
// slice instead of copying it, so the caller must not write to it
// afterwards (it may go on reading and sending it). Pending returns
// read-only entries — their payloads may be the log's own, shared with
// every other Pending result, so a caller forwards them and never
// writes to them.
type Log interface {
	// Append stores an entry, taking its payload. Appending an ID that
	// already exists is a no-op (idempotent).
	Append(e Entry) error
	// RegisterConsumer makes the log track acknowledgements for the
	// given durable consumer ID. Registration is idempotent; entries
	// appended before registration are owed to the consumer as well.
	RegisterConsumer(id string) error
	// UnregisterConsumer stops tracking the consumer.
	UnregisterConsumer(id string) error
	// Consumers returns the sorted registered consumer IDs.
	Consumers() ([]string, error)
	// Ack marks the entry acknowledged by the consumer.
	Ack(consumer, entryID string) error
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
// not what was ever appended: Ack retires an entry the moment the last
// registered consumer acknowledges it. The zero value is not usable;
// create with NewMemLog.
type MemLog struct {
	mu        sync.Mutex
	order     *list.List                 // of Entry, in append order
	entries   map[string]*list.Element   // the entries of order, by ID
	consumers map[string]map[string]bool // consumer -> entry IDs it acknowledged
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog {
	return &MemLog{
		order:     list.New(),
		entries:   make(map[string]*list.Element),
		consumers: make(map[string]map[string]bool),
	}
}

// Append implements Log.
func (l *MemLog) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.entries[e.ID]; ok {
		return nil
	}
	l.entries[e.ID] = l.order.PushBack(e) // the caller's payload, kept (Log)
	return nil
}

// RegisterConsumer implements Log.
func (l *MemLog) RegisterConsumer(id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.consumers[id]; !ok {
		l.consumers[id] = make(map[string]bool)
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

// Ack implements Log, and retires the entry if this acknowledgement is
// the one that completes it (GC's rule, applied when it becomes true).
// An entry the log does not hold — retired already, or never appended —
// is nothing to book: a duplicate acknowledgement leaves no trace.
func (l *MemLog) Ack(consumer, entryID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	acked, ok := l.consumers[consumer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	if _, ok := l.entries[entryID]; ok {
		acked[entryID] = true
		l.retireIfAckedByAllLocked(entryID)
	}
	return nil
}

// retireIfAckedByAllLocked applies the retirement rule to a live entry:
// every registered consumer has acknowledged it, and somebody is
// registered (with nobody registered the log retains everything, for
// whoever registers next). Its acknowledgements go with it.
func (l *MemLog) retireIfAckedByAllLocked(id string) bool {
	for _, acked := range l.consumers {
		if !acked[id] {
			return false
		}
	}
	if len(l.consumers) == 0 {
		return false
	}
	l.order.Remove(l.entries[id])
	delete(l.entries, id)
	for _, acked := range l.consumers {
		delete(acked, id)
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
		if e := el.Value.(Entry); !acked[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// GC implements Log. Ack has retired what an acknowledgement completed;
// left for GC is what an UnregisterConsumer made eligible.
func (l *MemLog) GC() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dropped := 0
	for el := l.order.Front(); el != nil; {
		next := el.Next() // retiring el unlinks it
		if l.retireIfAckedByAllLocked(el.Value.(Entry).ID) {
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
