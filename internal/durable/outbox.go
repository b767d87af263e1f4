package durable

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"govents/internal/store"
)

// Outbox is the publisher-side certified-delivery state for one class,
// persisted across crash-restart: a data segment log of published
// entries plus a meta segment log of consumer registrations and
// acknowledgements. It implements store.Log, so it drops into the
// certified multicast protocol where MemLog sits today — the difference
// is that a restarted publisher still owes its durable subscribers
// everything they have not acknowledged (paper §3.1.2).
type Outbox struct {
	data *SegmentLog
	meta *SegmentLog
	log  *slog.Logger

	mu        sync.Mutex
	hdr       []byte        // record-header scratch, reused under mu
	base      uint64        // offset of entries[0]; data offsets are contiguous
	entries   []store.Entry // live entries, ascending; payloads are the callers'
	byID      map[string]uint64
	consumers map[string]*cursorState // consumer -> acknowledged offsets
	closed    bool
}

var _ store.Log = (*Outbox)(nil)

// Meta-log record kinds.
const (
	metaRegister   = 1 // [blob consumer]
	metaUnregister = 2 // [blob consumer]
	metaAck        = 3 // [blob consumer][u64 offset]; read, no longer written
	metaSnapshot   = 4 // full consumer/ack state; resets replay
	metaAckRuns    = 5 // [blob consumer] then [u64 lo][u64 hi] per run, to the record's end
)

// OpenOutbox opens (or creates) the outbox under dataDir/metaDir,
// replaying both logs to rebuild the pending state.
func OpenOutbox(dataDir, metaDir string, cfg SegmentConfig) (*Outbox, error) {
	data, err := OpenSegmentLog(dataDir, cfg)
	if err != nil {
		return nil, err
	}
	meta, err := OpenSegmentLog(metaDir, cfg)
	if err != nil {
		_ = data.Close()
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	o := &Outbox{
		data:      data,
		meta:      meta,
		log:       logger,
		base:      data.FirstOffset(),
		byID:      make(map[string]uint64),
		consumers: make(map[string]*cursorState),
	}
	if err := o.replay(); err != nil {
		_ = data.Close()
		_ = meta.Close()
		return nil, err
	}
	return o, nil
}

// replay rebuilds in-memory state from the two logs. Data first, then
// meta: acks reference data offsets, and an ack for an offset that was
// compacted away is simply below every live offset and harmless.
func (o *Outbox) replay() error {
	err := o.data.ReadFrom(o.data.FirstOffset(), func(off uint64, rec []byte) error {
		id, payload, err := takeBlob(rec)
		if err != nil {
			return fmt.Errorf("durable: outbox data record %d: %w", off, err)
		}
		e := store.Entry{ID: string(id), Payload: append([]byte(nil), payload...), Offset: off}
		o.entries = append(o.entries, e)
		o.byID[e.ID] = off
		return nil
	})
	if err != nil {
		return err
	}
	return o.meta.ReadFrom(o.meta.FirstOffset(), func(off uint64, rec []byte) error {
		if err := o.applyMeta(rec); err != nil {
			return fmt.Errorf("durable: outbox meta record %d: %w", off, err)
		}
		return nil
	})
}

// applyMeta applies one meta record during replay.
func (o *Outbox) applyMeta(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("empty record")
	}
	kind, rest := rec[0], rec[1:]
	switch kind {
	case metaRegister:
		name, _, err := takeBlob(rest)
		if err != nil {
			return err
		}
		if _, ok := o.consumers[string(name)]; !ok {
			o.consumers[string(name)] = newCursor(o.base - 1)
		}
	case metaUnregister:
		name, _, err := takeBlob(rest)
		if err != nil {
			return err
		}
		delete(o.consumers, string(name))
	case metaAck, metaAckRuns:
		name, rest, err := takeBlob(rest)
		if err != nil {
			return err
		}
		cs := o.consumers[string(name)]
		for more := true; more; more = kind == metaAckRuns && len(rest) > 0 {
			var lo, hi uint64
			if lo, rest, err = takeUint64(rest); err != nil {
				return err
			}
			if hi = lo; kind == metaAckRuns {
				if hi, rest, err = takeUint64(rest); err != nil {
					return err
				}
			}
			if cs != nil {
				cs.recordRun(lo, min(hi, o.last()))
			}
		}
	case metaSnapshot:
		cs, err := o.decodeConsumerSnapshot(rest)
		if err != nil {
			return err
		}
		o.consumers = cs
	default:
		return fmt.Errorf("unknown meta kind %d", kind)
	}
	return nil
}

// encodeConsumerSnapshot serialises the full consumer/ack state: per
// consumer, the live offsets it has acknowledged, ascending.
func (o *Outbox) encodeConsumerSnapshot() []byte {
	names := make([]string, 0, len(o.consumers))
	for n := range o.consumers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []byte{metaSnapshot}
	out = appendUint32(out, uint32(len(names)))
	for _, n := range names {
		out = appendBlob(out, n)
		cs := o.consumers[n]
		count := len(out)
		out = appendUint32(out, 0)
		acked := uint32(0)
		for i := range o.entries {
			if off := o.base + uint64(i); cs.ackedAt(off) {
				out = appendUint64(out, off)
				acked++
			}
		}
		binary.BigEndian.PutUint32(out[count:], acked)
	}
	return out
}

// decodeConsumerSnapshot is the inverse of encodeConsumerSnapshot
// (minus the kind byte, already consumed). Everything below the first
// live offset was acknowledged by every consumer before it was
// compacted, so each cursor starts there.
func (o *Outbox) decodeConsumerSnapshot(rec []byte) (map[string]*cursorState, error) {
	n, rec, err := takeUint32(rec)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*cursorState, n)
	for range n {
		var name []byte
		name, rec, err = takeBlob(rec)
		if err != nil {
			return nil, err
		}
		var cnt uint32
		cnt, rec, err = takeUint32(rec)
		if err != nil {
			return nil, err
		}
		cs := newCursor(o.base - 1)
		for range cnt {
			var off uint64
			off, rec, err = takeUint64(rec)
			if err != nil {
				return nil, err
			}
			cs.record(off)
		}
		out[string(name)] = cs
	}
	return out, nil
}

// Add implements store.Log: idempotent by entry ID.
func (o *Outbox) Add(e store.Entry) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrLogClosed
	}
	if off, ok := o.byID[e.ID]; ok {
		return off, nil
	}
	o.hdr = appendBlob(o.hdr[:0], e.ID)
	off, err := o.data.AppendParts(o.hdr, e.Payload)
	if err != nil {
		return 0, err
	}
	e.Offset = off
	o.entries = append(o.entries, e) // the caller's payload, kept (store.Log)
	o.byID[e.ID] = off
	return off, nil
}

// Append and Ack are Add and AckRuns for a caller that works an event
// at a time, by ID (the benchmark's durable probe).
func (o *Outbox) Append(e store.Entry) error { _, err := o.Add(e); return err }

func (o *Outbox) Ack(consumer, entryID string) error {
	o.mu.Lock()
	off := o.byID[entryID] // 0, which no entry has, when the outbox does not hold it
	o.mu.Unlock()
	return o.AckRuns(consumer, []store.Run{{Lo: off, Hi: off}})
}

// RegisterConsumer implements store.Log: idempotent, and a known
// consumer costs no meta write.
func (o *Outbox) RegisterConsumer(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrLogClosed
	}
	if _, ok := o.consumers[id]; ok {
		return nil
	}
	o.hdr = appendBlob(append(o.hdr[:0], metaRegister), id)
	if _, err := o.meta.Append(o.hdr); err != nil {
		return err
	}
	o.consumers[id] = newCursor(o.base - 1)
	return nil
}

// UnregisterConsumer implements store.Log.
func (o *Outbox) UnregisterConsumer(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrLogClosed
	}
	if _, ok := o.consumers[id]; !ok {
		return nil
	}
	o.hdr = appendBlob(append(o.hdr[:0], metaUnregister), id)
	if _, err := o.meta.Append(o.hdr); err != nil {
		return err
	}
	delete(o.consumers, id)
	return nil
}

// Consumers implements store.Log.
func (o *Outbox) Consumers() ([]string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.consumers))
	for id := range o.consumers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// last is the highest offset the data log holds. An acknowledgement of
// one beyond it names a record a crash took (SyncBatch): the next append
// gets that offset and is owed afresh.
func (o *Outbox) last() uint64 { return o.base + uint64(len(o.entries)) - 1 }

// AckRuns implements store.Log: one meta record per call, of the runs
// that acknowledge something new, and none when no run does. Offsets
// the outbox does not hold (compacted, or never assigned) are ignored,
// mirroring MemLog's tolerance; an unknown consumer is an error.
func (o *Outbox) AckRuns(consumer string, runs []store.Run) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrLogClosed
	}
	cs, ok := o.consumers[consumer]
	if !ok {
		return fmt.Errorf("%w: %q", store.ErrUnknownConsumer, consumer)
	}
	o.hdr = appendBlob(append(o.hdr[:0], metaAckRuns), consumer)
	fresh := false
	for _, r := range runs {
		if hi := min(r.Hi, o.last()); cs.recordRun(r.Lo, hi) {
			fresh = true
			o.hdr = appendUint64(appendUint64(o.hdr, r.Lo), hi)
		}
	}
	if !fresh {
		return nil
	}
	_, err := o.meta.Append(o.hdr)
	return err
}

// Pending implements store.Log: in append (offset) order, walking from
// the consumer's frontier, so the cost is what it has in flight and not
// what the outbox still holds. The payloads are the outbox's own
// (read-only, store.Log).
func (o *Outbox) Pending(consumer string) ([]store.Entry, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cs, ok := o.consumers[consumer]
	if !ok {
		return nil, fmt.Errorf("%w: %q", store.ErrUnknownConsumer, consumer)
	}
	from, end := max(cs.frontier+1, o.base), o.base+uint64(len(o.entries))
	if from >= end {
		return nil, nil
	}
	out := make([]store.Entry, 0, end-from)
	for off := from; off < end; off++ {
		if !cs.sparse[off] {
			out = append(out, o.entries[off-o.base])
		}
	}
	return out, nil
}

// GC implements store.Log: the snapshot+compact step. It computes the
// contiguous fully-acknowledged frontier, drops whole data segments
// below it, then snapshots the consumer state into the meta log and
// compacts the meta history behind the snapshot. Dropping is
// segment-granular, so GC may retire fewer entries than are eligible —
// the remainder go in a later pass once their segment seals.
func (o *Outbox) GC() (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrLogClosed
	}
	if len(o.consumers) == 0 {
		return 0, nil // nobody registered: retain everything
	}
	// Contiguous frontier: every offset <= frontier acked by all.
	frontier := o.data.NextOffset() - 1
	for _, cs := range o.consumers {
		frontier = min(frontier, cs.frontier)
	}
	_, records, err := o.data.Compact(frontier + 1)
	if err != nil {
		return 0, err
	}
	// Prune memory to match disk, so a restart reconstructs the same
	// state the live process holds.
	dropped := int(o.data.FirstOffset() - o.base)
	for _, e := range o.entries[:dropped] {
		delete(o.byID, e.ID)
	}
	clear(o.entries[:dropped]) // the array outlives the reslice; let the payloads go
	o.entries = o.entries[dropped:]
	o.base += uint64(dropped)
	if uint64(dropped) != records {
		// Disk and memory disagree on what was dropped; loud but
		// non-fatal — the durable state on disk is authoritative.
		o.log.Warn("durable: outbox GC drop mismatch", "disk", records, "memory", dropped)
	}
	// Snapshot consumer state so the meta log does not grow without
	// bound; everything before the snapshot is then redundant.
	snap := o.encodeConsumerSnapshot()
	snapOff, err := o.meta.Append(snap)
	if err != nil {
		return dropped, err
	}
	if err := o.meta.Roll(); err != nil {
		return dropped, err
	}
	if _, _, err := o.meta.Compact(snapOff); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// Stats returns the underlying segment-log counters (data, meta).
func (o *Outbox) Stats() (data, meta SegmentStats) {
	return o.data.Stats(), o.meta.Stats()
}

// Len returns the number of live entries (test aid, mirrors MemLog).
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}

// Close implements store.Log.
func (o *Outbox) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	o.closed = true
	err := o.data.Close()
	if merr := o.meta.Close(); err == nil {
		err = merr
	}
	return err
}
