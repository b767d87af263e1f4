package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
)

// ErrNoDurability reports a durable operation on a domain opened
// without WithDurability.
var ErrNoDurability = errors.New("durable: domain has no durability directory")

// ErrDurableConflict reports a durable subscription ID already active
// in this process — durable identity is exclusive while live (§3.4.1).
var ErrDurableConflict = errors.New("durable: durable ID already active")

// Config tunes a Manager.
type Config struct {
	// Dir is the durability root; each class gets a subdirectory.
	Dir string
	// SegmentBytes is the per-log segment roll threshold (0 = default).
	SegmentBytes int64
	// Sync is the fsync policy for every log under the manager.
	Sync SyncPolicy
	// Logger receives recovery diagnostics. Nil discards.
	Logger *slog.Logger
}

// Stats aggregates durability counters across every class.
type Stats struct {
	// Classes is the number of classes with durable state on disk.
	Classes int
	// Segments, Records and Bytes sum across all segment logs.
	Segments int
	Records  uint64
	Bytes    int64
	// TornTails counts torn tail records truncated during recovery.
	TornTails uint64
	// Appends and Syncs sum the low-level log operations.
	Appends uint64
	Syncs   uint64
	// SegmentsCompacted counts segments dropped by compaction;
	// ReclaimedRecords and ReclaimedBytes sum the records and on-disk
	// bytes those segments held — the space compaction (manual or the
	// retention ticker) gave back over this process's lifetime.
	SegmentsCompacted uint64
	ReclaimedRecords  uint64
	ReclaimedBytes    int64
	// Staged, StageDups, Acked and Replayed sum the inbox flow: events
	// staged for durable delivery, duplicate arrivals suppressed,
	// deliveries durably acknowledged, and events replayed to resuming
	// durable subscriptions.
	Staged    uint64
	StageDups uint64
	Acked     uint64
	Replayed  uint64
}

// classState is the lazily opened per-class pair.
type classState struct {
	outbox *Outbox
	inbox  *Inbox
}

// Manager owns the durable state of one domain: per-class outboxes
// (publisher-side certified entries) and inboxes (subscriber-side
// staged deliveries and cursors), each under
// dir/<escaped class>/{outbox-data,outbox-meta,inbox-data,inbox-acks}.
type Manager struct {
	cfg Config
	log *slog.Logger

	mu      sync.Mutex
	classes map[string]*classState
	known   map[string]bool // classes with a directory on disk
	closed  bool
}

// Open opens the durability root, creating it if needed, and indexes
// the classes that already have state (their logs open lazily).
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("durable: empty durability directory")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if err := (osFS{}).MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", cfg.Dir, err)
	}
	m := &Manager{
		cfg:     cfg,
		log:     cfg.Logger,
		classes: make(map[string]*classState),
		known:   make(map[string]bool),
	}
	entries, err := (osFS{}).ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan %s: %w", cfg.Dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		class, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // foreign directory; leave it alone
		}
		m.known[class] = true
	}
	return m, nil
}

// classDir returns the directory for one class's state.
func (m *Manager) classDir(class string) string {
	return filepath.Join(m.cfg.Dir, url.PathEscape(class))
}

// segCfg renders the per-log segment config.
func (m *Manager) segCfg() SegmentConfig {
	return SegmentConfig{SegmentBytes: m.cfg.SegmentBytes, Sync: m.cfg.Sync, Logger: m.log}
}

// stateFor opens (or returns) the class's outbox+inbox pair.
func (m *Manager) stateFor(class string) (*classState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrLogClosed
	}
	if cs, ok := m.classes[class]; ok {
		return cs, nil
	}
	dir := m.classDir(class)
	outbox, err := OpenOutbox(
		filepath.Join(dir, "outbox-data"), filepath.Join(dir, "outbox-meta"), m.segCfg())
	if err != nil {
		return nil, err
	}
	inbox, err := OpenInbox(
		filepath.Join(dir, "inbox-data"), filepath.Join(dir, "inbox-acks"), m.segCfg())
	if err != nil {
		_ = outbox.Close()
		return nil, err
	}
	cs := &classState{outbox: outbox, inbox: inbox}
	m.classes[class] = cs
	m.known[class] = true
	return cs, nil
}

// OutboxFor returns the class's outbox, opening it on first use.
func (m *Manager) OutboxFor(class string) (*Outbox, error) {
	cs, err := m.stateFor(class)
	if err != nil {
		return nil, err
	}
	return cs.outbox, nil
}

// InboxFor returns the class's inbox, opening it on first use.
func (m *Manager) InboxFor(class string) (*Inbox, error) {
	cs, err := m.stateFor(class)
	if err != nil {
		return nil, err
	}
	return cs.inbox, nil
}

// AckDelivered durably acknowledges one delivered event for a durable
// subscription; class must be the event's concrete class. The cursor
// is created on first use: a certified class that appears after the
// durable subscription resumed starts being owed events from its first
// live delivery onward (the delivery being acknowledged was just made,
// so it lands at or before the fresh cursor and the ack is a no-op).
func (m *Manager) AckDelivered(class, durableID, eventID string) error {
	cs, err := m.stateFor(class)
	if err != nil {
		return err
	}
	if !cs.inbox.HasCursor(durableID) {
		if _, err := cs.inbox.EnsureCursor(durableID); err != nil {
			return err
		}
	}
	return cs.inbox.Ack(durableID, eventID)
}

// Classes returns every class with durable state, sorted.
func (m *Manager) Classes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.known))
	for c := range m.known {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// openStates snapshots the open class states.
func (m *Manager) openStates() map[string]*classState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*classState, len(m.classes))
	for c, cs := range m.classes {
		out[c] = cs
	}
	return out
}

// Compact runs snapshot+compact on every open class: outbox GC drops
// fully-acknowledged publisher entries, inbox compaction drops staged
// events every cursor has consumed. Classes never touched this run are
// left as-is on disk.
func (m *Manager) Compact() error {
	var firstErr error
	for class, cs := range m.openStates() {
		if _, err := cs.outbox.GC(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("durable: compact outbox %s: %w", class, err)
		}
		if err := cs.inbox.Compact(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("durable: compact inbox %s: %w", class, err)
		}
	}
	return firstErr
}

// Stats aggregates counters across every open class plus the on-disk
// class count.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	known := len(m.known)
	m.mu.Unlock()
	st := Stats{Classes: known}
	for _, cs := range m.openStates() {
		od, om := cs.outbox.Stats()
		ist := cs.inbox.Stats()
		for _, s := range []SegmentStats{od, om, ist.Data, ist.Acks} {
			st.Segments += s.Segments
			st.Records += s.Records
			st.Bytes += s.Bytes
			st.TornTails += s.TornTails
			st.Appends += s.Appends
			st.Syncs += s.Syncs
			st.SegmentsCompacted += s.Compacted
			st.ReclaimedRecords += s.ReclaimedRecords
			st.ReclaimedBytes += s.ReclaimedBytes
		}
		st.Staged += ist.Staged
		st.StageDups += ist.StageDups
		st.Acked += ist.Acked
		st.Replayed += ist.Replayed
	}
	return st
}

// Close closes every open class's logs. The manager must not be used
// afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	classes := m.classes
	m.classes = nil
	m.mu.Unlock()
	var firstErr error
	for class, cs := range classes {
		if err := cs.outbox.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("durable: close outbox %s: %w", class, err)
		}
		if err := cs.inbox.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("durable: close inbox %s: %w", class, err)
		}
	}
	return firstErr
}
