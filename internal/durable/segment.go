// Package durable is the certified log (paper §3.1.2, §3.4.1) and the
// persistence beneath it: a per-class append-only segment log with
// CRC-framed records; an Outbox over it, the publisher-side certified
// state of every certified class; and an Inbox with offset-tracked
// cursors (subscriber-side staged deliveries and resumable durable
// subscriptions).
//
// The logs reach their bytes through a small file seam. A durable
// domain's logs are on disk; a domain without a durability directory
// opens the same Outbox and Inbox over a seam that keeps no bytes
// (NewMemOutbox, NewMemInbox), so both run one implementation.
//
// The design goal is crash-restart recovery, not raw throughput: every
// record is individually CRC-framed so a torn tail (a crash mid-append)
// is detected and truncated at open, and every state mutation is either
// an appended record or a whole-segment drop, so recovery is a replay.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record (the default): a
	// record acknowledged to a caller is on stable storage. This is the
	// policy certified delivery assumes — the subscriber-side ack is
	// sent only after the staged record is durable.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs only on segment roll, explicit Sync and Close.
	// A crash can lose the tail of the active segment; certified
	// redelivery heals the loss (the publisher was never acked), at the
	// cost of possible duplicate deliveries above the at-least-once
	// floor.
	SyncBatch
)

// DefaultSegmentBytes is the segment roll threshold when the config
// leaves it zero.
const DefaultSegmentBytes = 1 << 20

// maxRecordBytes bounds one record; a framed length beyond it is treated
// as corruption rather than allocated.
const maxRecordBytes = 64 << 20

// maxEagerFrame is the largest frame body read into a buffer of the
// length the frame claims; a longer one grows as its bytes are read.
const maxEagerFrame = 64 << 10

// frameHeader is [dataLen u32][crc32(data) u32], both big-endian.
const frameHeader = 8

// ErrCorrupt reports corruption in the interior of a segment log — a
// bad CRC or frame before the final record of the final segment, which
// no crash can produce (torn tails are truncated at open instead).
var ErrCorrupt = errors.New("durable: corrupt segment log")

// ErrLogClosed reports an operation on a closed segment log.
var ErrLogClosed = errors.New("durable: log closed")

// SegmentConfig tunes a SegmentLog.
type SegmentConfig struct {
	// SegmentBytes is the roll threshold: an append that would grow the
	// active segment past it starts a new segment. Zero selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Logger receives recovery diagnostics (torn-tail truncations).
	// Nil discards.
	Logger *slog.Logger

	fs fileSystem // what holds the segments; nil is the disk (osFS)
}

// SegmentStats are a SegmentLog's counters.
type SegmentStats struct {
	// Segments and Records count the live (non-compacted) segments and
	// the records they hold; Bytes is their on-disk size.
	Segments int
	Records  uint64
	Bytes    int64
	// FirstOffset and NextOffset bound the live offset range:
	// [FirstOffset, NextOffset). FirstOffset > 1 after compaction.
	FirstOffset uint64
	NextOffset  uint64
	// Appends and Syncs count appended records and fsync calls.
	Appends uint64
	Syncs   uint64
	// TornTails counts torn tail records truncated at open.
	TornTails uint64
	// Compacted counts segments dropped by Compact over the log's
	// lifetime (this process).
	Compacted uint64
	// ReclaimedRecords and ReclaimedBytes sum the records and on-disk
	// bytes of the compacted segments (this process).
	ReclaimedRecords uint64
	ReclaimedBytes   int64
}

// segment is one on-disk log file holding records [base, base+count).
type segment struct {
	base  uint64
	count uint64
	size  int64
	path  string
}

func (s *segment) end() uint64 { return s.base + s.count }

// SegmentLog is an append-only log of CRC-framed records split across
// size-bounded segment files, each named by the offset of its first
// record. Offsets are 1-based and strictly monotonic across segments;
// compaction drops whole segments from the front. Safe for concurrent
// use.
type SegmentLog struct {
	dir string
	cfg SegmentConfig
	fs  fileSystem
	log *slog.Logger

	mu      sync.Mutex
	segs    []*segment
	active  file   // append handle of segs[len(segs)-1]
	next    uint64 // next offset to assign
	frame   []byte // framing buffer, reused across appends
	closed  bool
	appends uint64
	syncs   uint64
	torn    uint64
	compact uint64

	reclaimedRecs  uint64
	reclaimedBytes int64
}

// OpenSegmentLog opens (or creates) the segment log in dir, replaying
// existing segments to rebuild the offset space. A torn tail record in
// the final segment — the artifact of a crash mid-append — is truncated
// away and logged; corruption anywhere else fails the open with
// ErrCorrupt.
func OpenSegmentLog(dir string, cfg SegmentConfig) (*SegmentLog, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if cfg.fs == nil {
		cfg.fs = osFS{}
	}
	if err := cfg.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	l := &SegmentLog{dir: dir, cfg: cfg, fs: cfg.fs, log: logger, next: 1}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.newSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := l.fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND)
		if err != nil {
			return nil, fmt.Errorf("durable: reopen %s: %w", last.path, err)
		}
		l.active = f
	}
	return l, nil
}

// segPath names the segment whose first record is offset base.
func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d.seg", base))
}

// scan discovers and verifies the existing segments.
func (l *SegmentLog) scan() error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("durable: scan %s: %w", l.dir, err)
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for i, base := range bases {
		seg := &segment{base: base, path: segPath(l.dir, base)}
		if base != l.next && i > 0 {
			return fmt.Errorf("%w: %s: segment %d does not chain onto offset %d",
				ErrCorrupt, seg.path, base, l.next)
		}
		if i == 0 {
			l.next = base // compaction may have dropped the front
		}
		final := i == len(bases)-1
		if err := l.scanSegment(seg, final); err != nil {
			return err
		}
		l.segs = append(l.segs, seg)
		l.next = seg.end()
	}
	return nil
}

// scanSegment replays one segment file, counting records and — in the
// final segment only — truncating a torn tail to the last whole-record
// boundary.
func (l *SegmentLog) scanSegment(seg *segment, final bool) error {
	f, err := l.fs.Open(seg.path)
	if err != nil {
		return fmt.Errorf("durable: scan %s: %w", seg.path, err)
	}
	defer f.Close()
	var good int64
	for {
		data, n, err := readFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !final {
				return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, seg.path, good, err)
			}
			// Torn tail: a crash mid-append left a partial (or
			// garbage-length) frame. Truncate to the last whole record;
			// the lost record was never acknowledged to anyone.
			if terr := l.fs.Truncate(seg.path, good); terr != nil {
				return fmt.Errorf("durable: truncate torn tail of %s: %w", seg.path, terr)
			}
			l.torn++
			l.log.Warn("durable: truncated torn tail record",
				"segment", seg.path, "offset", seg.base+seg.count,
				"goodBytes", good, "err", err)
			break
		}
		_ = data
		good += n
		seg.count++
	}
	seg.size = good
	return nil
}

// readFrame reads one [len][crc][data] frame, returning the data and the
// framed byte count. io.EOF at a frame boundary is the clean end; any
// other failure (short header, short body, oversized length, CRC
// mismatch) is reported as an error for the caller to classify.
func readFrame(r io.Reader) ([]byte, int64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("torn frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxRecordBytes {
		return nil, 0, fmt.Errorf("frame length %d exceeds limit", n)
	}
	var data []byte
	if n <= maxEagerFrame {
		data = make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, 0, fmt.Errorf("torn frame body: %w", err)
		}
	} else {
		// Grown as bytes arrive: a torn or garbage length costs what the
		// file holds, not what the length claims.
		var err error
		if data, err = io.ReadAll(io.LimitReader(r, int64(n))); err != nil || len(data) < int(n) {
			return nil, 0, fmt.Errorf("torn frame body: %d of %d bytes (%v)", len(data), n, err)
		}
	}
	if crc := crc32.ChecksumIEEE(data); crc != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, 0, fmt.Errorf("crc mismatch")
	}
	return data, frameHeader + int64(n), nil
}

// newSegmentLocked starts a fresh active segment at the current offset.
func (l *SegmentLog) newSegmentLocked() error {
	seg := &segment{base: l.next, path: segPath(l.dir, l.next)}
	f, err := l.fs.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", seg.path, err)
	}
	l.segs = append(l.segs, seg)
	l.active = f
	return nil
}

// rollLocked seals the active segment (fsynced regardless of policy — a
// sealed segment must be durable) and starts a new one.
func (l *SegmentLog) rollLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("durable: sync on roll: %w", err)
	}
	l.syncs++
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("durable: close on roll: %w", err)
	}
	return l.newSegmentLocked()
}

// Append frames and appends one record, returning its offset. Under
// SyncAlways the record is on stable storage when Append returns.
func (l *SegmentLog) Append(data []byte) (uint64, error) {
	return l.AppendParts(data)
}

// maxKeptFrame bounds the framing buffer a log keeps between appends; a
// larger record's buffer is let go once it is written.
const maxKeptFrame = 1 << 20

// AppendParts is Append of the concatenation of parts, framed (length,
// CRC over all parts, bytes) straight into the log's framing buffer and
// written in one write: a caller with a header and a payload does not
// join them first. The parts are not retained.
func (l *SegmentLog) AppendParts(parts ...[]byte) (uint64, error) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if size > maxRecordBytes {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds limit", size)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrLogClosed
	}
	var hdr [frameHeader]byte // filled in below, once the CRC is known
	frame := append(l.frame[:0], hdr[:]...)
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		frame = append(frame, p...)
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(size))
	binary.BigEndian.PutUint32(frame[4:8], crc)
	if cap(frame) <= maxKeptFrame {
		l.frame = frame
	} else {
		l.frame = nil
	}

	seg := l.segs[len(l.segs)-1]
	if seg.size > 0 && seg.size+int64(len(frame)) > l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
		seg = l.segs[len(l.segs)-1]
	}
	if _, err := l.active.Write(frame); err != nil {
		return 0, fmt.Errorf("durable: append: %w", err)
	}
	if l.cfg.Sync == SyncAlways {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("durable: sync: %w", err)
		}
		l.syncs++
	}
	off := l.next
	l.next++
	seg.count++
	seg.size += int64(len(frame))
	l.appends++
	return off, nil
}

// Sync fsyncs the active segment (a no-op barrier under SyncAlways).
func (l *SegmentLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	l.syncs++
	return nil
}

// Roll seals the active segment and starts a new one regardless of
// size — the hook for snapshot-then-compact schemes: append a snapshot
// record, Roll, then Compact everything before the snapshot.
func (l *SegmentLog) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.rollLocked()
}

// NextOffset returns the offset the next Append will be assigned.
func (l *SegmentLog) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// FirstOffset returns the smallest live offset (== NextOffset when the
// log is empty or fully compacted).
func (l *SegmentLog) FirstOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// snapshotSegs captures the live segments and their record counts so
// reads can proceed without holding the lock (appends racing a read are
// bounded out by the captured counts; compaction unlinking a captured
// file surfaces as a skipped, fully-acknowledged segment).
func (l *SegmentLog) snapshotSegs() []segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]segment, len(l.segs))
	for i, s := range l.segs {
		out[i] = *s
	}
	return out
}

// ReadFrom streams every record with offset >= from, in offset order,
// to fn. fn receives a fresh buffer it may retain; a non-nil fn error
// aborts the read and is returned. ReadFrom does not hold the log lock
// while fn runs, so fn may append to this log.
func (l *SegmentLog) ReadFrom(from uint64, fn func(off uint64, data []byte) error) error {
	for _, seg := range l.snapshotSegs() {
		if seg.end() <= from || seg.count == 0 {
			continue
		}
		if err := l.readSegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// readSegment streams one captured segment's records to fn.
func (l *SegmentLog) readSegment(seg segment, from uint64, fn func(off uint64, data []byte) error) error {
	f, err := l.fs.Open(seg.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // compacted while reading: records were fully acked
		}
		return fmt.Errorf("durable: read %s: %w", seg.path, err)
	}
	defer f.Close()
	for off := seg.base; off < seg.end(); off++ {
		data, _, err := readFrame(f)
		if err != nil {
			return fmt.Errorf("%w: %s record %d: %v", ErrCorrupt, seg.path, off, err)
		}
		if off < from {
			continue
		}
		if err := fn(off, data); err != nil {
			return err
		}
	}
	return nil
}

// Compact drops every sealed segment whose records all have offsets
// below before, returning the segments and records dropped. The active
// segment is never dropped, so the log always accepts appends.
func (l *SegmentLog) Compact(before uint64) (segments int, records uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrLogClosed
	}
	for len(l.segs) > 1 && l.segs[0].end() <= before {
		seg := l.segs[0]
		if err := l.fs.Remove(seg.path); err != nil {
			return segments, records, fmt.Errorf("durable: compact %s: %w", seg.path, err)
		}
		l.segs = l.segs[1:]
		segments++
		records += seg.count
		l.compact++
		l.reclaimedRecs += seg.count
		l.reclaimedBytes += seg.size
	}
	return segments, records, nil
}

// Stats returns the log's counters.
func (l *SegmentLog) Stats() SegmentStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := SegmentStats{
		Segments:         len(l.segs),
		FirstOffset:      l.segs[0].base,
		NextOffset:       l.next,
		Appends:          l.appends,
		Syncs:            l.syncs,
		TornTails:        l.torn,
		Compacted:        l.compact,
		ReclaimedRecords: l.reclaimedRecs,
		ReclaimedBytes:   l.reclaimedBytes,
	}
	for _, s := range l.segs {
		st.Records += s.count
		st.Bytes += s.size
	}
	return st
}

// Close fsyncs and closes the active segment. The log must not be used
// afterwards.
func (l *SegmentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.active.Sync(); err != nil {
		_ = l.active.Close()
		return fmt.Errorf("durable: close sync: %w", err)
	}
	l.syncs++
	return l.active.Close()
}
