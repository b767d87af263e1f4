package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
)

// ErrUnknownEvent reports an acknowledgement for an event ID the inbox
// never staged — offset misuse by the caller.
var ErrUnknownEvent = errors.New("durable: unknown event")

// ErrUnknownCursor reports an operation against a durable subscription
// ID with no cursor in this inbox.
var ErrUnknownCursor = errors.New("durable: unknown durable cursor")

// Inbox is the subscriber-side staging log for one class. Incoming
// certified events are staged (appended + deduplicated by event ID)
// BEFORE they are acknowledged to the publisher, closing the §3.1.2
// crash window between delivery and acknowledgement: if the process
// dies after the ack but before the handler ran, the event is still on
// disk and is replayed to the durable subscription on restart.
//
// Each durable subscription ID owns a persistent cursor: a start
// offset (events staged before the cursor existed are not owed), a
// contiguous acknowledged frontier, and a sparse set of out-of-order
// acknowledgements. SubscribeDurable resumes by replaying everything
// between the frontier and the log head that is not sparsely acked.
type Inbox struct {
	data *SegmentLog // staged events: [blob id][blob origin][payload]
	acks *SegmentLog // cursor history
	log  *slog.Logger

	mu      sync.Mutex
	hdr     []byte            // record-header scratch, reused under mu
	byID    map[string]uint64 // staged event ID -> offset
	cursors map[string]*cursorState
	closed  bool

	staged    uint64
	stageDups uint64
	acked     uint64
	replayed  uint64
}

// Ack-log record kinds.
const (
	ackCursor   = 1 // [blob durableID][u64 start]
	ackAck      = 2 // [blob durableID][u64 offset]
	ackSnapshot = 3 // full cursor state; resets replay
)

// OpenInbox opens (or creates) the inbox under dataDir/acksDir,
// replaying both logs.
func OpenInbox(dataDir, acksDir string, cfg SegmentConfig) (*Inbox, error) {
	data, err := OpenSegmentLog(dataDir, cfg)
	if err != nil {
		return nil, err
	}
	acks, err := OpenSegmentLog(acksDir, cfg)
	if err != nil {
		_ = data.Close()
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ib := &Inbox{
		data:    data,
		acks:    acks,
		log:     logger,
		byID:    make(map[string]uint64),
		cursors: make(map[string]*cursorState),
	}
	if err := ib.replay(); err != nil {
		_ = data.Close()
		_ = acks.Close()
		return nil, err
	}
	return ib, nil
}

// NewMemInbox returns an empty inbox that keeps its state in memory
// only: what a certified class of a domain without a durability
// directory stages into. It deduplicates by the IDs it has staged,
// which it keeps for as long as it lives, and holds no event to replay.
func NewMemInbox() *Inbox {
	ib, err := OpenInbox("inbox-data", "inbox-acks", memConfig)
	if err != nil {
		panic(err) // discardFS fails nothing
	}
	return ib
}

// replay rebuilds the dedup index from the data log and the cursors
// from the ack log. Dedup knowledge for compacted events is gone, but a
// compacted event was acknowledged by every cursor AND acknowledged to
// its publisher, so a redelivery of it can only come from a publisher
// that itself lost the ack — a duplicate within the at-least-once
// floor, not a correctness break. A cursor naming an offset beyond the
// data log's last names an event a crash took (SyncBatch): the offset
// is dropped from it, and the ack history is cut behind a snapshot, so
// that it cannot apply to the event that takes the offset next.
func (ib *Inbox) replay() error {
	err := ib.data.ReadFrom(ib.data.FirstOffset(), func(off uint64, rec []byte) error {
		id, _, _, err := takeStaged(rec)
		if err != nil {
			return fmt.Errorf("durable: inbox data record %d: %w", off, err)
		}
		ib.byID[string(id)] = off
		return nil
	})
	if err != nil {
		return err
	}
	err = ib.acks.ReadFrom(ib.acks.FirstOffset(), func(off uint64, rec []byte) error {
		if err := ib.applyAck(rec); err != nil {
			return fmt.Errorf("durable: inbox ack record %d: %w", off, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	last, clipped := ib.data.NextOffset()-1, false
	for _, cs := range ib.cursors {
		clipped = cs.clip(last) || clipped
	}
	if !clipped {
		return nil
	}
	ib.log.Warn("durable: inbox cursors name events the data log lost; snapshotting", "last", last)
	return ib.snapshotAcksLocked(nil)
}

// takeStaged decodes a data record, [blob id][blob origin][payload].
func takeStaged(rec []byte) (id, origin, payload []byte, err error) {
	if id, rec, err = takeBlob(rec); err != nil {
		return nil, nil, nil, err
	}
	origin, payload, err = takeBlob(rec)
	return id, origin, payload, err
}

// applyAck applies one ack-log record during replay.
func (ib *Inbox) applyAck(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("empty record")
	}
	kind, rest := rec[0], rec[1:]
	switch kind {
	case ackCursor:
		id, rest, err := takeBlob(rest)
		if err != nil {
			return err
		}
		start, _, err := takeUint64(rest)
		if err != nil {
			return err
		}
		if _, ok := ib.cursors[string(id)]; !ok {
			ib.cursors[string(id)] = newCursor(start)
		}
	case ackAck:
		id, rest, err := takeBlob(rest)
		if err != nil {
			return err
		}
		off, _, err := takeUint64(rest)
		if err != nil {
			return err
		}
		if cs, ok := ib.cursors[string(id)]; ok {
			cs.record(off)
		}
	case ackSnapshot:
		cursors, err := decodeCursorSnapshot(rest)
		if err != nil {
			return err
		}
		ib.cursors = cursors
	default:
		return fmt.Errorf("unknown ack kind %d", kind)
	}
	return nil
}

// encodeCursorSnapshot serialises all cursors.
func encodeCursorSnapshot(cursors map[string]*cursorState) []byte {
	out := []byte{ackSnapshot}
	out = appendUint32(out, uint32(len(cursors)))
	for id, cs := range cursors {
		out = appendBlob(out, []byte(id))
		out = appendUint64(out, cs.start)
		out = appendOffsets(appendUint64(out, cs.frontier), cs)
	}
	return out
}

// decodeCursorSnapshot is the inverse of encodeCursorSnapshot (minus
// the kind byte).
func decodeCursorSnapshot(rec []byte) (map[string]*cursorState, error) {
	n, rec, err := takeUint32(rec)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*cursorState)
	for range n {
		var id []byte
		id, rec, err = takeBlob(rec)
		if err != nil {
			return nil, err
		}
		cs := &cursorState{sparse: make(map[uint64]bool)}
		cs.start, rec, err = takeUint64(rec)
		if err != nil {
			return nil, err
		}
		cs.frontier, rec, err = takeUint64(rec)
		if err != nil {
			return nil, err
		}
		if rec, err = takeOffsets(cs, rec); err != nil {
			return nil, err
		}
		out[string(id)] = cs
	}
	return out, nil
}

// Stage appends an incoming event if its ID is new, reporting whether
// it was fresh. A false return with nil error is the dedup hit: the
// event is already durable here, so the caller should re-acknowledge
// it to the publisher but not deliver it again. Stage succeeding means
// the event survives a crash — callers must stage BEFORE acking.
func (ib *Inbox) Stage(id, origin string, payload []byte) (fresh bool, err error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false, ErrLogClosed
	}
	if _, ok := ib.byID[id]; ok {
		ib.stageDups++
		return false, nil
	}
	ib.hdr = appendBlob(appendBlob(ib.hdr[:0], id), origin)
	off, err := ib.data.AppendParts(ib.hdr, payload)
	if err != nil {
		return false, err
	}
	ib.byID[id] = off
	ib.staged++
	return true, nil
}

// EnsureCursor creates (and persists) the cursor for a durable
// subscription ID if it does not exist, reporting whether it already
// did. A fresh cursor starts at the current log head: a brand-new
// durable subscription is owed events from now on, not history.
func (ib *Inbox) EnsureCursor(durableID string) (resumed bool, err error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false, ErrLogClosed
	}
	if _, ok := ib.cursors[durableID]; ok {
		return true, nil
	}
	start := ib.data.NextOffset() - 1
	ib.hdr = appendUint64(appendBlob(append(ib.hdr[:0], ackCursor), durableID), start)
	if _, err := ib.acks.Append(ib.hdr); err != nil {
		return false, err
	}
	ib.cursors[durableID] = newCursor(start)
	return false, nil
}

// HasCursor reports whether the durable ID owns a cursor here.
func (ib *Inbox) HasCursor(durableID string) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	_, ok := ib.cursors[durableID]
	return ok
}

// Ack durably marks the staged event delivered to the durable
// subscription. Unknown event IDs are ErrUnknownEvent (the caller is
// confusing offsets or classes); duplicate acks are a no-op.
func (ib *Inbox) Ack(durableID, eventID string) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return ErrLogClosed
	}
	cs, ok := ib.cursors[durableID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCursor, durableID)
	}
	off, ok := ib.byID[eventID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEvent, eventID)
	}
	if cs.ackedAt(off) {
		return nil
	}
	ib.hdr = appendUint64(appendBlob(append(ib.hdr[:0], ackAck), durableID), off)
	if _, err := ib.acks.Append(ib.hdr); err != nil {
		return err
	}
	cs.record(off)
	ib.acked++
	return nil
}

// Replay streams, in staging order, every event the durable
// subscription has not acknowledged — the "missed while down" set. fn
// runs without the inbox lock held, so it may Stage and Ack (the usual
// flow: handler runs, then Ack). Events staged after the snapshot was
// taken are not included; callers pause live delivery around Replay to
// make the handoff seamless.
func (ib *Inbox) Replay(durableID string, fn func(eventID, origin string, payload []byte) error) error {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return ErrLogClosed
	}
	cs, ok := ib.cursors[durableID]
	if !ok {
		ib.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownCursor, durableID)
	}
	from := cs.frontier + 1
	sparse := make(map[uint64]bool, len(cs.sparse))
	for off := range cs.sparse {
		sparse[off] = true
	}
	ib.mu.Unlock()

	return ib.data.ReadFrom(from, func(off uint64, rec []byte) error {
		if sparse[off] {
			return nil
		}
		id, origin, payload, err := takeStaged(rec)
		if err != nil {
			return fmt.Errorf("durable: inbox data record %d: %w", off, err)
		}
		ib.mu.Lock()
		ib.replayed++
		ib.mu.Unlock()
		return fn(string(id), string(origin), payload)
	})
}

// Compact snapshots the cursor state into the ack log and drops the
// data segments every cursor has fully acknowledged. With no cursors,
// all sealed segments are droppable — nobody is owed anything.
func (ib *Inbox) Compact() error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return ErrLogClosed
	}
	frontier := ib.data.NextOffset() - 1
	for _, cs := range ib.cursors {
		if cs.frontier < frontier {
			frontier = cs.frontier
		}
	}
	return ib.snapshotAcksLocked(func() error {
		_, _, err := ib.data.Compact(frontier + 1)
		return err
	})
}

// snapshotAcksLocked writes every cursor as one record and seals it (a
// roll syncs, whatever the policy). Then, with the acknowledgements
// durable, it runs compact, if any, and drops the ack history behind
// the snapshot.
func (ib *Inbox) snapshotAcksLocked(compact func() error) error {
	snapOff, err := ib.acks.Append(encodeCursorSnapshot(ib.cursors))
	if err != nil {
		return err
	}
	if err := ib.acks.Roll(); err != nil {
		return err
	}
	if compact != nil {
		if err := compact(); err != nil {
			return err
		}
	}
	_, _, err = ib.acks.Compact(snapOff)
	return err
}

// InboxStats are an Inbox's counters.
type InboxStats struct {
	Staged    uint64
	StageDups uint64
	Acked     uint64
	Replayed  uint64
	Data      SegmentStats
	Acks      SegmentStats
}

// Stats returns the inbox counters.
func (ib *Inbox) Stats() InboxStats {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return InboxStats{
		Staged:    ib.staged,
		StageDups: ib.stageDups,
		Acked:     ib.acked,
		Replayed:  ib.replayed,
		Data:      ib.data.Stats(),
		Acks:      ib.acks.Stats(),
	}
}

// Close closes both logs. The inbox must not be used afterwards.
func (ib *Inbox) Close() error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return nil
	}
	ib.closed = true
	err := ib.data.Close()
	if aerr := ib.acks.Close(); err == nil {
		err = aerr
	}
	return err
}
