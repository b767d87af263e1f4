package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
)

// Entry is one certified record: an opaque payload under a unique ID.
// The payload's bytes are immutable from the moment the entry is given
// to an Outbox (see Outbox.Add). Offset is the outbox's to assign: Add
// ignores the caller's and returns its own, Pending fills it in.
type Entry struct {
	ID      string
	Payload []byte
	Offset  uint64
}

// Run is a run of consecutive offsets, both ends included.
type Run struct{ Lo, Hi uint64 }

// ErrUnknownConsumer is returned when acknowledging or querying a
// consumer that was never registered.
var ErrUnknownConsumer = errors.New("durable: unknown consumer")

// Outbox is the publisher-side certified-delivery state of one class:
// an append log with per-consumer acknowledgement tracking, on a data
// segment log of published entries and a meta segment log of consumer
// registrations and acknowledgements. Over the disk it survives
// crash-restart, so a restarted publisher still owes its durable
// subscribers everything they have not acknowledged (paper §3.1.2);
// over discardFS (NewMemOutbox) it survives a subscriber's disconnection
// and not this process. Safe for concurrent use.
//
// Offsets start at 1, ascend in append order, and are never reused by
// an outbox that is open; they are what a subscriber acknowledges by.
//
// Retirement: an entry leaves memory at the acknowledgement that
// completes it — every registered consumer has acknowledged it, and
// somebody is registered (with nobody registered the outbox holds
// everything, for whoever registers next). On disk it stays until GC
// drops the segment holding it. A consumer registered later is not owed
// what was retired before it came.
//
// Ownership of payloads: Add takes e.Payload — the outbox keeps the
// slice instead of copying it, so the caller must not write to it
// afterwards (it may go on reading and sending it). Pending returns
// read-only entries — their payloads are the outbox's own, shared with
// every other Pending result, so a caller forwards them and never
// writes to them. A slice of runs stays the caller's: AckRuns reads it
// and keeps nothing of it.
type Outbox struct {
	data *SegmentLog
	meta *SegmentLog
	log  *slog.Logger

	mu        sync.Mutex
	hdr       []byte  // record-header scratch, reused under mu
	base      uint64  // the offset of buf[head]
	head      int     // buf[:head] is spent: the held span is buf[head:]
	buf       []Entry // offsets base through the data log's last; a retired one is zero
	live      int     // the entries of buf not retired
	byID      map[string]uint64
	consumers map[string]*cursorState // consumer -> acknowledged offsets
	closed    bool
}

// Meta-log record kinds. Kinds 1, 3 and 4 are read, no longer written.
const (
	metaRegister   = 1 // [blob consumer]: owed everything on disk
	metaUnregister = 2 // [blob consumer]
	metaAck        = 3 // [blob consumer][u64 offset]
	metaSnapshot   = 4 // [u32 n] then per consumer [blob consumer][u32 count][u64 offset]...; resets replay
	metaAckRuns    = 5 // [blob consumer] then [u64 lo][u64 hi] per run, to the record's end
	metaCursor     = 6 // [cursor]: registers a consumer, not owed what it acknowledges
	metaCursors    = 7 // [u32 n][cursor]...: every consumer's state; resets replay
)

// A [cursor] is [blob consumer][u64 frontier][u32 n][u64 offset]...:
// the consumer has acknowledged every offset up to the frontier and the
// n offsets above it.

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

// memConfig is the segment config of a log over discardFS: one segment,
// which never fills, since there is nothing to seal, and no syncs.
var memConfig = SegmentConfig{SegmentBytes: math.MaxInt64, Sync: SyncBatch, fs: discardFS{}}

// NewMemOutbox returns an empty outbox that keeps its state in memory
// only: what a certified class of a domain without a durability
// directory publishes from. It holds the entries some consumer is owed
// and nothing else.
func NewMemOutbox() *Outbox {
	o, err := OpenOutbox("outbox-data", "outbox-meta", memConfig)
	if err != nil {
		panic(err) // discardFS fails nothing
	}
	return o
}

// replay rebuilds in-memory state from the two logs. Meta first: the
// data log's bounds are known without reading it, and knowing what each
// consumer acknowledged, the data replay keeps only the entries somebody
// is owed. An acknowledgement of an offset beyond the data log's last
// names a record a crash took (SyncBatch): it is dropped, and the meta
// history is then cut behind a snapshot, so that it cannot apply to the
// entry that takes the offset next, in this run or after a reopen.
func (o *Outbox) replay() error {
	last, clipped := o.data.NextOffset()-1, false
	err := o.meta.ReadFrom(o.meta.FirstOffset(), func(off uint64, rec []byte) error {
		c, err := o.applyMeta(rec, last)
		if err != nil {
			return fmt.Errorf("durable: outbox meta record %d: %w", off, err)
		}
		clipped = clipped || c
		return nil
	})
	if err != nil {
		return err
	}
	for _, cs := range o.consumers {
		clipped = cs.clip(last) || clipped
	}
	err = o.data.ReadFrom(o.base, func(off uint64, rec []byte) error {
		id, payload, err := takeBlob(rec)
		if err != nil {
			return fmt.Errorf("durable: outbox data record %d: %w", off, err)
		}
		switch {
		case !o.ackedByAllLocked(off):
			o.push(Entry{ID: string(id), Payload: payload, Offset: off}) // rec is the read's own
			o.byID[string(id)] = off
			o.live++
		case o.head == len(o.buf):
			o.base = off + 1 // retired, and nothing held before it
		default:
			o.push(Entry{}) // retired behind an entry still owed
		}
		return nil
	})
	if err != nil || !clipped {
		return err
	}
	o.log.Warn("durable: outbox acknowledgements name records the data log lost; snapshotting",
		"last", last)
	return o.snapshotMetaLocked(nil)
}

// applyMeta applies one meta record during replay. A run is cut at
// last, the data log's last offset, and clipped reports that it named
// more; replay cuts the cursors' other offsets after the last record.
func (o *Outbox) applyMeta(rec []byte, last uint64) (clipped bool, err error) {
	if len(rec) == 0 {
		return false, fmt.Errorf("empty record")
	}
	kind, rest := rec[0], rec[1:]
	switch kind {
	case metaRegister:
		name, _, err := takeBlob(rest)
		if err != nil {
			return false, err
		}
		if _, ok := o.consumers[string(name)]; !ok {
			o.consumers[string(name)] = newCursor(o.base - 1)
		}
	case metaCursor:
		name, cs, _, err := o.takeCursor(rest)
		if err != nil {
			return false, err
		}
		if _, ok := o.consumers[name]; !ok {
			o.consumers[name] = cs
		}
	case metaUnregister:
		name, _, err := takeBlob(rest)
		if err != nil {
			return false, err
		}
		delete(o.consumers, string(name))
	case metaAck, metaAckRuns:
		name, rest, err := takeBlob(rest)
		if err != nil {
			return false, err
		}
		cs := o.consumers[string(name)]
		for more := true; more; more = kind == metaAckRuns && len(rest) > 0 {
			var lo, hi uint64
			if lo, rest, err = takeUint64(rest); err != nil {
				return false, err
			}
			if hi = lo; kind == metaAckRuns {
				if hi, rest, err = takeUint64(rest); err != nil {
					return false, err
				}
			}
			clipped = clipped || hi > last
			if cs != nil {
				cs.recordRun(lo, min(hi, last))
			}
		}
	case metaSnapshot:
		n, rest, err := takeUint32(rest)
		if err != nil {
			return false, err
		}
		consumers := make(map[string]*cursorState)
		for range n {
			var name []byte
			if name, rest, err = takeBlob(rest); err != nil {
				return false, err
			}
			cs := newCursor(o.base - 1)
			if rest, err = takeOffsets(cs, rest); err != nil {
				return false, err
			}
			consumers[string(name)] = cs
		}
		o.consumers = consumers
	case metaCursors:
		n, rest, err := takeUint32(rest)
		if err != nil {
			return false, err
		}
		consumers := make(map[string]*cursorState)
		for range n {
			var name string
			var cs *cursorState
			if name, cs, rest, err = o.takeCursor(rest); err != nil {
				return false, err
			}
			consumers[name] = cs
		}
		o.consumers = consumers
	default:
		return false, fmt.Errorf("unknown meta kind %d", kind)
	}
	return clipped, nil
}

// appendCursor appends a [cursor]: the consumer's frontier and the
// offsets it acknowledged above it, ascending.
func appendCursor(dst []byte, name string, cs *cursorState) []byte {
	return appendOffsets(appendUint64(appendBlob(dst, name), cs.frontier), cs)
}

// takeCursor consumes a [cursor]. Everything below the data log's first
// offset was acknowledged by every consumer before it was compacted.
func (o *Outbox) takeCursor(src []byte) (name string, cs *cursorState, rest []byte, err error) {
	blob, src, err := takeBlob(src)
	if err != nil {
		return "", nil, nil, err
	}
	frontier, src, err := takeUint64(src)
	if err != nil {
		return "", nil, nil, err
	}
	cs = newCursor(max(o.base-1, frontier))
	src, err = takeOffsets(cs, src)
	return string(blob), cs, src, err
}

// snapshotMetaLocked writes every consumer's state as one record and
// seals it (a roll syncs, whatever the policy). Then, with what the
// consumers acknowledged durable, it runs compact, if any, and drops the
// meta history behind the snapshot, which the snapshot makes redundant.
func (o *Outbox) snapshotMetaLocked(compact func() error) error {
	names := make([]string, 0, len(o.consumers))
	for n := range o.consumers {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := appendUint32([]byte{metaCursors}, uint32(len(names)))
	for _, n := range names {
		snap = appendCursor(snap, n, o.consumers[n])
	}
	off, err := o.meta.Append(snap)
	if err != nil {
		return err
	}
	if err := o.meta.Roll(); err != nil {
		return err
	}
	if compact != nil {
		if err := compact(); err != nil {
			return err
		}
	}
	_, _, err = o.meta.Compact(off)
	return err
}

// last is the highest offset the data log holds. An acknowledgement of
// one beyond it names a record a crash took (SyncBatch): the next append
// gets that offset and is owed afresh.
func (o *Outbox) last() uint64 { return o.base + uint64(len(o.buf)-o.head) - 1 }

// slot is the held span's entry at off, base <= off <= last.
func (o *Outbox) slot(off uint64) *Entry { return &o.buf[o.head+int(off-o.base)] }

// push appends to the held span, moving it to the front of buf before
// growing buf when at least half of buf is spent.
func (o *Outbox) push(e Entry) {
	if len(o.buf) == cap(o.buf) && o.head > 0 && o.head >= len(o.buf)/2 {
		n := copy(o.buf, o.buf[o.head:])
		clear(o.buf[n:])
		o.buf, o.head = o.buf[:n], 0
	}
	o.buf = append(o.buf, e)
}

// ackedByAllLocked is the retirement rule: somebody is registered, and
// every registered consumer has acknowledged off.
func (o *Outbox) ackedByAllLocked(off uint64) bool {
	for _, cs := range o.consumers {
		if !cs.ackedAt(off) {
			return false
		}
	}
	return len(o.consumers) > 0
}

// retireLocked lets go of each held entry from lo through hi that the
// retirement rule allows, and of the retired front of the held span.
func (o *Outbox) retireLocked(lo, hi uint64) {
	for off := max(lo, o.base); off <= min(hi, o.last()); off = max(off+1, o.base) {
		e := o.slot(off)
		if e.Offset == 0 || !o.ackedByAllLocked(off) {
			continue
		}
		delete(o.byID, e.ID)
		*e = Entry{} // the payload goes with it
		o.live--
		for o.head < len(o.buf) && o.buf[o.head].Offset == 0 {
			o.head++
			o.base++
		}
		if o.head == len(o.buf) {
			o.buf, o.head = o.buf[:0], 0
		}
	}
}

// Add stores an entry, taking its payload, and returns its offset.
// Adding an ID the outbox holds returns the offset it has (idempotent);
// an ID retired already is a new entry.
func (o *Outbox) Add(e Entry) (uint64, error) {
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
	o.push(e) // the caller's payload, kept
	o.byID[e.ID] = off
	o.live++
	return off, nil
}

// Append and Ack are Add and AckRuns for a caller that works an event
// at a time, by ID (the benchmark's durable probe).
func (o *Outbox) Append(e Entry) error { _, err := o.Add(e); return err }

func (o *Outbox) Ack(consumer, entryID string) error {
	o.mu.Lock()
	off := o.byID[entryID] // 0, which no entry has, when the outbox does not hold it
	o.mu.Unlock()
	return o.AckRuns(consumer, []Run{{Lo: off, Hi: off}})
}

// RegisterConsumer makes the outbox track acknowledgements for the
// given durable consumer ID, owed every entry the outbox holds. It is
// idempotent, and a known consumer costs no meta write.
func (o *Outbox) RegisterConsumer(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrLogClosed
	}
	if _, ok := o.consumers[id]; ok {
		return nil
	}
	cs := newCursor(o.base - 1)
	for off := o.base; off <= o.last(); off++ {
		if o.slot(off).Offset == 0 { // retired before this consumer came
			cs.record(off)
		}
	}
	o.hdr = appendCursor(append(o.hdr[:0], metaCursor), id, cs)
	if _, err := o.meta.Append(o.hdr); err != nil {
		return err
	}
	o.consumers[id] = cs
	return nil
}

// UnregisterConsumer stops tracking the consumer. What it alone held
// back is retired by the next GC.
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

// Consumers returns the sorted registered consumer IDs.
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

// AckRuns marks the entries at the offsets of runs acknowledged by the
// consumer, and retires each entry whose acknowledgements this
// completes. Runs may overlap, repeat, be inverted, and name offsets the
// outbox does not hold (retired, or beyond the last one): what is not
// held is ignored, so a duplicate acknowledgement leaves no trace and a
// run costs what it covers of the held span, whatever it claims. It
// writes one meta record per call, of the runs that acknowledge
// something new, and none when no run does. An unknown consumer is
// ErrUnknownConsumer.
func (o *Outbox) AckRuns(consumer string, runs []Run) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrLogClosed
	}
	cs, ok := o.consumers[consumer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	o.hdr = appendBlob(append(o.hdr[:0], metaAckRuns), consumer)
	fresh, last := false, o.last()
	for _, r := range runs {
		if hi := min(r.Hi, last); cs.recordRun(r.Lo, hi) {
			fresh = true
			o.hdr = appendUint64(appendUint64(o.hdr, r.Lo), hi)
		}
	}
	if !fresh {
		return nil
	}
	if _, err := o.meta.Append(o.hdr); err != nil {
		return err
	}
	for _, r := range runs {
		o.retireLocked(r.Lo, r.Hi)
	}
	return nil
}

// Pending returns, in append (offset) order, the entries the consumer
// has not acknowledged, walking from its frontier, so the cost is what
// it has in flight and not what the outbox holds. The payloads are the
// outbox's own: read-only.
func (o *Outbox) Pending(consumer string) ([]Entry, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cs, ok := o.consumers[consumer]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	from, end := max(cs.frontier+1, o.base), o.last()+1
	if from >= end {
		return nil, nil
	}
	out := make([]Entry, 0, end-from)
	for off := from; off < end; off++ {
		if e := o.slot(off); e.Offset != 0 && !cs.sparse[off] {
			out = append(out, *e)
		}
	}
	return out, nil
}

// GC is the compaction step: it snapshots the consumer state into the
// meta log, drops every sealed data segment below the frontier all
// consumers have acknowledged, retires what an UnregisterConsumer made
// eligible, and drops the meta history behind the snapshot. It returns
// how many records it dropped from the data log. Dropping is
// segment-granular, so a record may stay on disk, retired, until its
// segment seals. With nobody registered it drops nothing.
func (o *Outbox) GC() (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrLogClosed
	}
	if len(o.consumers) == 0 {
		return 0, nil // nobody registered: retain everything
	}
	frontier := o.last()
	for _, cs := range o.consumers {
		frontier = min(frontier, cs.frontier)
	}
	var records uint64
	err := o.snapshotMetaLocked(func() (err error) {
		_, records, err = o.data.Compact(frontier + 1)
		return err
	})
	o.retireLocked(o.base, o.last())
	return int(records), err
}

// Stats returns the underlying segment-log counters (data, meta).
func (o *Outbox) Stats() (data, meta SegmentStats) {
	return o.data.Stats(), o.meta.Stats()
}

// Len returns the number of entries the outbox holds: appended and not
// yet retired.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.live
}

// Close releases both logs. The outbox must not be used afterwards.
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
