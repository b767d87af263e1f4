package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"

	"govents/internal/codec"
	"govents/internal/seqset"
)

// ErrUnknownEvent reports an acknowledgement for an event the inbox
// never staged — offset misuse by the caller.
var ErrUnknownEvent = errors.New("durable: unknown event")

// ErrUnknownCursor reports an operation against a durable subscription
// ID with no cursor in this inbox.
var ErrUnknownCursor = errors.New("durable: unknown durable cursor")

// Inbox is the subscriber-side staging log for one class. Incoming
// certified events are staged (appended + deduplicated by identity)
// BEFORE they are acknowledged to the publisher, closing the §3.1.2
// crash window between delivery and acknowledgement: if the process
// dies after the ack but before the handler ran, the event is still on
// disk and is replayed to the durable subscription on restart.
//
// Each durable subscription ID owns a persistent cursor: a start
// offset (events staged before the cursor existed are not owed), a
// contiguous acknowledged frontier, and the runs acknowledged out of
// order above it. SubscribeDurable resumes by replaying everything
// between the frontier and the log head that no run holds.
//
// What it keeps per event follows what is still owed. A named event is
// remembered as staged by its count in the runs of its incarnation, and
// its offset only while some cursor owes it; an event named by an ID
// text that is no name's keeps its offset for the inbox's life.
type Inbox struct {
	data *SegmentLog // staged events: [blob id][blob origin][payload]
	acks *SegmentLog // cursor history
	log  *slog.Logger

	mu      sync.Mutex
	hdr     []byte                 // record-header scratch, reused under mu
	names   map[uint64]*seqset.Set // incarnation -> the counts staged of it
	owed    map[codec.Name]uint64  // named event some cursor owes -> offset
	texts   map[codec.Ident]uint64 // event named by text -> offset
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
		names:   make(map[uint64]*seqset.Set),
		owed:    make(map[codec.Name]uint64),
		texts:   make(map[codec.Ident]uint64),
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
// directory stages into. It deduplicates by the identities it has
// staged, which it keeps for as long as it lives (as runs, for names),
// and holds no event to replay.
func NewMemInbox() *Inbox {
	ib, err := OpenInbox("inbox-data", "inbox-acks", memConfig)
	if err != nil {
		panic(err) // discardFS fails nothing
	}
	return ib
}

// replay rebuilds the cursors from the ack log, then the runs of staged
// names and the index of what the cursors owe from the data log. Dedup
// knowledge for compacted events is gone, but a compacted event was
// acknowledged by every cursor AND acknowledged to its publisher, so a
// redelivery of it can only come from a publisher that itself lost the
// ack — a duplicate within the at-least-once floor, not a correctness
// break. A cursor naming an offset beyond the data log's last names an
// event a crash took (SyncBatch): the offset is dropped from it, and
// the ack history is cut behind a snapshot, so that it cannot apply to
// the event that takes the offset next. Dropping it changes no offset
// the data log holds, so the index built before stands.
func (ib *Inbox) replay() error {
	err := ib.acks.ReadFrom(ib.acks.FirstOffset(), func(off uint64, rec []byte) error {
		if err := ib.applyAck(rec); err != nil {
			return fmt.Errorf("durable: inbox ack record %d: %w", off, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = ib.data.ReadFrom(ib.data.FirstOffset(), func(off uint64, rec []byte) error {
		id, _, _, err := takeStaged(rec)
		if err != nil {
			return fmt.Errorf("durable: inbox data record %d: %w", off, err)
		}
		ib.noteStaged(codec.IdentOf(id), off)
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

// named reports whether id is deduplicated by the runs of its
// incarnation: a Name, whose count 0 no publication has.
func named(id codec.Ident) bool { return id.ID == "" && id.Name.N != 0 }

// stagedLocked reports whether the event id names is staged here.
func (ib *Inbox) stagedLocked(id codec.Ident) bool {
	if !named(id) {
		_, ok := ib.texts[id]
		return ok
	}
	runs := ib.names[id.Name.Inc]
	return runs != nil && runs.Has(id.Name.N)
}

// noteStaged records id as staged at off: a name in the runs of its
// incarnation and in the index while a cursor owes it, a text in the
// text index.
func (ib *Inbox) noteStaged(id codec.Ident, off uint64) {
	if !named(id) {
		ib.texts[id] = off
		return
	}
	runs := ib.names[id.Name.Inc]
	if runs == nil {
		runs = new(seqset.Set)
		ib.names[id.Name.Inc] = runs
	}
	runs.Add(id.Name.N, id.Name.N, 0)
	if ib.owedLocked(off) {
		ib.owed[id.Name] = off
	}
}

// owedLocked reports whether some cursor has not acknowledged off.
func (ib *Inbox) owedLocked(off uint64) bool {
	for _, cs := range ib.cursors {
		if !cs.acked.Has(off) {
			return true
		}
	}
	return false
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
			cs.acked.Add(off, off, 0)
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
		out = appendAcked(appendUint64(out, cs.start), cs)
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
		cs := &cursorState{}
		if cs.start, rec, err = takeUint64(rec); err != nil {
			return nil, err
		}
		if rec, err = takeAcked(cs, rec); err != nil {
			return nil, err
		}
		out[string(id)] = cs
	}
	return out, nil
}

// StageIdent appends an incoming event if its identity is new,
// reporting whether it was fresh. A false return with nil error is the
// dedup hit: the event is already durable here, so the caller should
// re-acknowledge it to the publisher but not deliver it again.
// StageIdent succeeding means the event survives a crash — callers must
// stage BEFORE acking. The data record spells the identity's text,
// rendered into the record's header.
func (ib *Inbox) StageIdent(id codec.Ident, origin string, payload []byte) (fresh bool, err error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false, ErrLogClosed
	}
	if ib.stagedLocked(id) {
		ib.stageDups++
		return false, nil
	}
	ib.hdr = appendBlob(appendIdent(ib.hdr[:0], id), origin)
	off, err := ib.data.AppendParts(ib.hdr, payload)
	if err != nil {
		return false, err
	}
	ib.noteStaged(id, off)
	ib.staged++
	return true, nil
}

// Stage is StageIdent for an event named by its ID text.
func (ib *Inbox) Stage(id, origin string, payload []byte) (fresh bool, err error) {
	return ib.StageIdent(codec.IdentOf(id), origin, payload)
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

// AckIdent durably marks the staged event delivered to the durable
// subscription. An event never staged is ErrUnknownEvent (the caller is
// confusing offsets or classes); duplicate acks are a no-op, and so is
// an ack of a staged event the cursor is not owed (staged before it).
// The last cursor to acknowledge a named event takes it out of the
// index.
func (ib *Inbox) AckIdent(durableID string, id codec.Ident) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return ErrLogClosed
	}
	cs, ok := ib.cursors[durableID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCursor, durableID)
	}
	var off uint64
	if named(id) {
		off, ok = ib.owed[id.Name]
	} else {
		off, ok = ib.texts[id]
	}
	if !ok {
		if !ib.stagedLocked(id) {
			return fmt.Errorf("%w: %q", ErrUnknownEvent, id.Text())
		}
		return nil // every cursor acknowledged it, or none was owed it
	}
	if cs.acked.Has(off) {
		return nil
	}
	ib.hdr = appendUint64(appendBlob(append(ib.hdr[:0], ackAck), durableID), off)
	if _, err := ib.acks.Append(ib.hdr); err != nil {
		return err
	}
	cs.acked.Add(off, off, 0)
	ib.acked++
	if named(id) && !ib.owedLocked(off) {
		delete(ib.owed, id.Name)
	}
	return nil
}

// Ack is AckIdent for an event named by its ID text.
func (ib *Inbox) Ack(durableID, eventID string) error {
	return ib.AckIdent(durableID, codec.IdentOf(eventID))
}

// Replay streams, in staging order, every event the durable
// subscription has not acknowledged — the "missed while down" set —
// with the ID text its data record spells. fn runs without the inbox
// lock held, so it may Stage and Ack (the usual flow: handler runs, then
// Ack). Events staged after the snapshot was taken are not included;
// callers pause live delivery around Replay to make the handoff
// seamless.
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
	from, above := cs.acked.Floor()+1, slices.Clone(cs.acked.Runs())
	ib.mu.Unlock()

	return ib.data.ReadFrom(from, func(off uint64, rec []byte) error {
		for len(above) > 0 && above[0].Hi < off {
			above = above[1:]
		}
		if len(above) > 0 && above[0].Lo <= off {
			return nil // acknowledged out of order
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
		frontier = min(frontier, cs.acked.Floor())
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

// InboxFootprint is what an Inbox holds in memory for the events it
// staged.
type InboxFootprint struct {
	Incarnations int // publisher incarnations whose names it staged
	Runs         int // runs of staged counts, over every incarnation
	Owed         int // named events some cursor has not acknowledged
	Texts        int // events staged under an ID text that is no name's
}

// Footprint returns what the inbox holds.
func (ib *Inbox) Footprint() InboxFootprint {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	fp := InboxFootprint{Incarnations: len(ib.names), Owed: len(ib.owed), Texts: len(ib.texts)}
	for _, runs := range ib.names {
		fp.Runs += len(runs.Runs())
		if runs.Floor() > 0 {
			fp.Runs++ // the counts from 1 to the floor
		}
	}
	return fp
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
