// Package store implements the durable substrate for certified obvent
// delivery (paper §3.1.2: "even if a notifiable temporarily disconnects
// or fails, it will eventually deliver the obvent", and §3.4.1: durable
// subscriptions outliving their hosting process, re-identified via
// activate(id)).
//
// Two implementations of the Log interface are provided: MemLog, an
// in-memory log whose lifetime models stable storage in simulated-crash
// tests (the netsim "crash" kills the node, not the store), and FileLog,
// a real append-only operation log on disk replayed at open.
package store

import (
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
	// returns how many were dropped.
	GC() (int, error)
	// Close releases resources. The log must not be used afterwards.
	Close() error
}

// MemLog is an in-memory Log. The zero value is not usable; create with
// NewMemLog.
type MemLog struct {
	mu        sync.Mutex
	order     []string // entry IDs in append order
	entries   map[string]Entry
	consumers map[string]map[string]bool // consumer -> acked entry IDs
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog {
	return &MemLog{
		entries:   make(map[string]Entry),
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
	cp := Entry{ID: e.ID, Payload: append([]byte(nil), e.Payload...)}
	l.entries[e.ID] = cp
	l.order = append(l.order, e.ID)
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

// Ack implements Log.
func (l *MemLog) Ack(consumer, entryID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	acked, ok := l.consumers[consumer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	acked[entryID] = true
	return nil
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
	for _, id := range l.order {
		if !acked[id] {
			e := l.entries[id]
			out = append(out, Entry{ID: e.ID, Payload: append([]byte(nil), e.Payload...)})
		}
	}
	return out, nil
}

// GC implements Log.
func (l *MemLog) GC() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.consumers) == 0 {
		return 0, nil // nobody registered: retain everything
	}
	var kept []string
	dropped := 0
	for _, id := range l.order {
		ackedByAll := true
		for _, acked := range l.consumers {
			if !acked[id] {
				ackedByAll = false
				break
			}
		}
		if ackedByAll {
			delete(l.entries, id)
			for _, acked := range l.consumers {
				delete(acked, id)
			}
			dropped++
		} else {
			kept = append(kept, id)
		}
	}
	l.order = kept
	return dropped, nil
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// Len returns the number of live entries (test aid).
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}
