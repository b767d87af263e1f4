package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"

	"govents/internal/chunk"
	"govents/internal/codec"
)

// Entry is one certified record: an opaque payload under a unique ID,
// which the outbox keys by its codec.Ident (AddIdent). Offset is the
// outbox's to assign: Add ignores the caller's, Pending fills it in.
type Entry struct {
	ID      string
	Payload []byte
	Offset  uint64
}

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
// what was retired before it came, so an entry added while a member the
// caller awaits has not been heard from waits for it too (Await).
//
// Ownership of payloads: AddIdent copies the payload into chunks the outbox
// recycles once the entries in them retire, so the caller may reuse its
// buffer as soon as Add returns. Pending returns entries whose payloads
// are the caller's own copies. A slice of runs stays the caller's:
// AckRuns reads it and keeps nothing of it.
type Outbox struct {
	data *SegmentLog
	meta *SegmentLog
	log  *slog.Logger

	mu        sync.Mutex
	hdr       []byte      // record-header scratch, reused under mu
	base      uint64      // the offset of buf[head]
	head      int         // buf[:head] is spent: the held span is buf[head:]
	buf       []heldEntry // offsets base through the data log's last; a retired one is zero
	live      int         // the entries of buf not retired
	chunks    chunk.Store // the payloads AddIdent copied
	byID      map[codec.Ident]uint64
	consumers map[string]*cursorState // consumer -> acknowledged offsets
	awaits    map[string]uint64       // awaited member -> the first offset added meanwhile
	closed    bool
}

// heldEntry is an entry the outbox holds, and the chunk its payload was
// copied into (nil for one replay read, whose buffer is its own).
type heldEntry struct {
	id      codec.Ident
	payload []byte
	offset  uint64
	chunk   *chunk.Chunk
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
		byID:      make(map[codec.Ident]uint64),
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
			h := heldEntry{id: codec.IdentOf(id), payload: payload, offset: off} // rec is the read's own
			o.push(h)
			o.byID[h.id] = off
			o.live++
		case o.head == len(o.buf):
			o.base = off + 1 // retired, and nothing held before it
		default:
			o.push(heldEntry{}) // retired behind an entry still owed
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
		name, cs, _, err := o.takeCursor(rest, true)
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
				cs.acked.Add(lo, min(hi, last), 0)
			}
		}
	case metaSnapshot, metaCursors:
		n, rest, err := takeUint32(rest)
		if err != nil {
			return false, err
		}
		consumers := make(map[string]*cursorState)
		for range n {
			var name string
			var cs *cursorState
			if name, cs, rest, err = o.takeCursor(rest, kind == metaCursors); err != nil {
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

// takeCursor consumes a [cursor], or without its frontier a consumer of
// a metaSnapshot, [blob consumer][u32 n][u64 offset].... Everything
// below the data log's first offset was acknowledged by every consumer
// before it was compacted.
func (o *Outbox) takeCursor(src []byte, frontier bool) (name string, cs *cursorState, rest []byte, err error) {
	blob, src, err := takeBlob(src)
	if err != nil {
		return "", nil, nil, err
	}
	cs = newCursor(o.base - 1)
	if frontier {
		rest, err = takeAcked(cs, src)
	} else {
		rest, err = takeOffsets(cs, src)
	}
	return string(blob), cs, rest, err
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
		snap = appendAcked(appendBlob(snap, n), o.consumers[n])
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
func (o *Outbox) slot(off uint64) *heldEntry { return &o.buf[o.head+int(off-o.base)] }

// push appends to the held span, moving it to the front of buf before
// growing buf when at least half of buf is spent.
func (o *Outbox) push(e heldEntry) {
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
		if !cs.acked.Has(off) {
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
		if e.offset == 0 || !o.ackedByAllLocked(off) || o.awaitedLocked(off) {
			continue
		}
		delete(o.byID, e.id)
		o.chunks.Release(e.chunk)
		*e = heldEntry{}
		o.live--
		for o.head < len(o.buf) && o.buf[o.head].offset == 0 {
			o.head++
			o.base++
		}
		if o.head == len(o.buf) {
			o.buf, o.head = o.buf[:0], 0
		}
	}
}

// awaitedLocked reports whether an awaited member holds off back: the
// entry was added while the member was awaited.
func (o *Outbox) awaitedLocked(off uint64) bool {
	for _, from := range o.awaits {
		if off >= from {
			return true
		}
	}
	return false
}

// Await sets the members of the view the outbox waits to hear from: an
// entry added while a member is awaited does not retire, whatever its
// consumers acknowledged, until the member is no longer awaited, so that
// the identities the member turns out to host, registered once it is
// heard from, are owed the entry. A member no longer awaited lets go of
// what it held back; the next one it names waits from the next entry on.
// What Await sets lives in memory only.
func (o *Outbox) Await(members []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	released := uint64(math.MaxUint64)
	for m, from := range o.awaits {
		if !slices.Contains(members, m) {
			delete(o.awaits, m)
			released = min(released, from)
		}
	}
	for _, m := range members {
		if _, ok := o.awaits[m]; !ok {
			if o.awaits == nil {
				o.awaits = make(map[string]uint64)
			}
			o.awaits[m] = o.data.NextOffset()
		}
	}
	o.retireLocked(released, o.last())
}

// AddIdent stores an entry under the identity id, with a copy of its
// payload, and returns its offset. Adding an identity the outbox holds
// returns the offset it has (idempotent); one retired already is a new
// entry. The data record spells the identity's text.
func (o *Outbox) AddIdent(id codec.Ident, payload []byte) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrLogClosed
	}
	if off, ok := o.byID[id]; ok {
		return off, nil
	}
	o.hdr = appendIdent(o.hdr[:0], id)
	off, err := o.data.AppendParts(o.hdr, payload)
	if err != nil {
		return 0, err
	}
	h := heldEntry{id: id, offset: off}
	h.payload, h.chunk = o.chunks.Copy(payload)
	o.push(h)
	o.byID[id] = off
	o.live++
	return off, nil
}

// Add is AddIdent for an entry named by its ID text.
func (o *Outbox) Add(e Entry) (uint64, error) { return o.AddIdent(codec.IdentOf(e.ID), e.Payload) }

// Append and Ack are Add and AckRuns for a caller that works an event
// at a time, by ID (the benchmark's durable probe).
func (o *Outbox) Append(e Entry) error { _, err := o.Add(e); return err }

func (o *Outbox) Ack(consumer, entryID string) error {
	o.mu.Lock()
	off := o.byID[codec.IdentOf(entryID)] // 0, which no entry has, when the outbox does not hold it
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
		if o.slot(off).offset == 0 { // retired before this consumer came
			cs.acked.Add(off, off, 0)
		}
	}
	o.hdr = appendAcked(appendBlob(append(o.hdr[:0], metaCursor), id), cs)
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
		if hi := min(r.Hi, last); cs.acked.Add(r.Lo, hi, 0) {
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
// it has in flight and not what the outbox holds. The payloads are
// copies, in one buffer, that the caller owns, and each ID is its
// identity's text, rendered here.
func (o *Outbox) Pending(consumer string) ([]Entry, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cs, ok := o.consumers[consumer]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConsumer, consumer)
	}
	from, end := max(cs.acked.Floor()+1, o.base), o.last()+1
	if from >= end {
		return nil, nil
	}
	out, size := make([]Entry, 0, end-from), 0
	for off := from; off < end; off++ {
		if e := o.slot(off); e.offset != 0 && !cs.acked.Has(off) {
			out = append(out, Entry{ID: e.id.Text(), Payload: e.payload, Offset: off})
			size += len(e.payload)
		}
	}
	buf := make([]byte, 0, size)
	for i := range out {
		start := len(buf)
		buf = append(buf, out[i].Payload...)
		out[i].Payload = buf[start:len(buf):len(buf)]
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
		frontier = min(frontier, cs.acked.Floor())
	}
	for _, from := range o.awaits {
		frontier = min(frontier, from-1)
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
