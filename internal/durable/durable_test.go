package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"govents/internal/allocs"
	"govents/internal/codec"
)

func openTestOutbox(t *testing.T, dir string) *Outbox {
	t.Helper()
	o, err := OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"), SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOutboxSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir)
	if err := o.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	for i := range 6 {
		if err := o.Append(Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"e0", "e1", "e3"} {
		if err := o.Ack("sub", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// A restarted publisher owes exactly what was unacked: e2, e4, e5.
	o = openTestOutbox(t, dir)
	defer o.Close()
	consumers, err := o.Consumers()
	if err != nil {
		t.Fatal(err)
	}
	if len(consumers) != 1 || consumers[0] != "sub" {
		t.Fatalf("consumers after reopen = %v", consumers)
	}
	pending, err := o.Pending("sub")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"e2", "e4", "e5"}
	if len(pending) != len(want) {
		t.Fatalf("pending after reopen = %d entries, want %d", len(pending), len(want))
	}
	for i, id := range want {
		if pending[i].ID != id {
			t.Fatalf("pending[%d] = %q, want %q", i, pending[i].ID, id)
		}
	}
}

func TestOutboxGCSnapshotCompact(t *testing.T) {
	dir := t.TempDir()
	o, err := OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"),
		SegmentConfig{SegmentBytes: 1}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if err := o.Append(Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Ack a contiguous prefix plus a gap: e0..e2 compactable, e3 not.
	for _, id := range []string{"e0", "e1", "e2", "e4"} {
		if err := o.Ack("sub", id); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := o.GC()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("GC dropped %d, want 3", dropped)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-GC reopen must reconstruct the surviving state.
	o = openTestOutbox(t, dir)
	defer o.Close()
	pending, err := o.Pending("sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "e3" {
		t.Fatalf("pending after GC+reopen = %v", pending)
	}
	// e4 is acknowledged: retired from memory, though its segment, past
	// the gap, stays on disk.
	if o.Len() != 1 {
		t.Fatalf("Len after GC+reopen = %d, want 1 (e3)", o.Len())
	}
}

func TestOutboxGCWithoutConsumersRetains(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir)
	defer o.Close()
	if err := o.Append(Entry{ID: "e0"}); err != nil {
		t.Fatal(err)
	}
	dropped, err := o.GC()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || o.Len() != 1 {
		t.Fatalf("GC with no consumers dropped %d (len %d), want 0 (1)", dropped, o.Len())
	}
}

func openTestInbox(t *testing.T, dir string) *Inbox {
	t.Helper()
	ib, err := OpenInbox(filepath.Join(dir, "data"), filepath.Join(dir, "acks"), SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ib
}

// replayIDs collects the event IDs Replay would hand a resuming
// subscription.
func replayIDs(t *testing.T, ib *Inbox, durableID string) []string {
	t.Helper()
	var ids []string
	if err := ib.Replay(durableID, func(id, origin string, payload []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestInboxStageDedupAndCursor(t *testing.T) {
	dir := t.TempDir()
	ib := openTestInbox(t, dir)
	defer ib.Close()

	// Events staged before the cursor exists are not owed to it.
	if _, err := ib.Stage("old", "pub", []byte("x")); err != nil {
		t.Fatal(err)
	}
	resumed, err := ib.EnsureCursor("durable-1")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh cursor reported resumed")
	}
	for i := range 3 {
		fresh, err := ib.Stage(fmt.Sprintf("e%d", i), "pub", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("e%d not fresh", i)
		}
	}
	if fresh, err := ib.Stage("e1", "pub", []byte{1}); err != nil || fresh {
		t.Fatalf("duplicate stage: fresh=%v err=%v", fresh, err)
	}
	if ids := replayIDs(t, ib, "durable-1"); len(ids) != 3 || ids[0] != "e0" {
		t.Fatalf("replay = %v, want [e0 e1 e2]", ids)
	}
	// Ack out of order: e1 then e0; replay owes only e2.
	if err := ib.Ack("durable-1", "e1"); err != nil {
		t.Fatal(err)
	}
	if err := ib.Ack("durable-1", "e0"); err != nil {
		t.Fatal(err)
	}
	if ids := replayIDs(t, ib, "durable-1"); len(ids) != 1 || ids[0] != "e2" {
		t.Fatalf("replay after acks = %v, want [e2]", ids)
	}
	// Misuse sentinels.
	if err := ib.Ack("durable-1", "no-such-event"); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("Ack unknown event: %v", err)
	}
	if err := ib.Ack("ghost", "e2"); !errors.Is(err, ErrUnknownCursor) {
		t.Fatalf("Ack unknown cursor: %v", err)
	}
	if err := ib.Replay("ghost", nil); !errors.Is(err, ErrUnknownCursor) {
		t.Fatalf("Replay unknown cursor: %v", err)
	}
}

func TestInboxSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ib := openTestInbox(t, dir)
	if _, err := ib.EnsureCursor("d1"); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if _, err := ib.Stage(fmt.Sprintf("e%d", i), "pub", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"e0", "e1", "e3"} {
		if err := ib.Ack("d1", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ib.Close(); err != nil {
		t.Fatal(err)
	}
	ib = openTestInbox(t, dir)
	defer ib.Close()
	resumed, err := ib.EnsureCursor("d1")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("cursor lost across reopen")
	}
	if ids := replayIDs(t, ib, "d1"); len(ids) != 2 || ids[0] != "e2" || ids[1] != "e4" {
		t.Fatalf("replay after reopen = %v, want [e2 e4]", ids)
	}
	// Dedup survives: a redelivered event is not fresh.
	if fresh, err := ib.Stage("e2", "pub", []byte{2}); err != nil || fresh {
		t.Fatalf("redelivered stage after reopen: fresh=%v err=%v", fresh, err)
	}
}

func TestInboxCompact(t *testing.T) {
	dir := t.TempDir()
	ib, err := OpenInbox(filepath.Join(dir, "data"), filepath.Join(dir, "acks"),
		SegmentConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ib.EnsureCursor("d1"); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := ib.Stage(fmt.Sprintf("e%d", i), "pub", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"e0", "e1"} {
		if err := ib.Ack("d1", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ib.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ib.Close(); err != nil {
		t.Fatal(err)
	}
	ib, err = OpenInbox(filepath.Join(dir, "data"), filepath.Join(dir, "acks"), SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()
	if ids := replayIDs(t, ib, "d1"); len(ids) != 2 || ids[0] != "e2" || ids[1] != "e3" {
		t.Fatalf("replay after compact+reopen = %v, want [e2 e3]", ids)
	}
}

func TestManagerLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := m.OutboxFor("pkg.Quote")
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Append(Entry{ID: "e0", Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	ib, err := m.InboxFor("pkg.Quote")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ib.EnsureCursor("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ib.Stage("e1", "pub", []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := m.AckDelivered("pkg.Quote", "d1", codec.IdentOf("e1")); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Classes != 1 || st.Staged != 1 || st.Acked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the class is discovered from disk before any traffic.
	m, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	classes := m.Classes()
	if len(classes) != 1 || classes[0] != "pkg.Quote" {
		t.Fatalf("classes after reopen = %v", classes)
	}
	ib, err = m.InboxFor("pkg.Quote")
	if err != nil {
		t.Fatal(err)
	}
	if !ib.HasCursor("d1") {
		t.Fatal("cursor lost across manager reopen")
	}
}

// TestDurableAppendAllocs pins the steady-state allocations of the four
// per-event durable operations: the record headers go into scratch the
// outbox and inbox keep, the frame into the log's buffer, the payload is
// kept or written as it is. What is left is each index's map insert.
func TestDurableAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dir := t.TempDir()
	cfg := SegmentConfig{Sync: SyncBatch}
	o, err := OpenOutbox(filepath.Join(dir, "od"), filepath.Join(dir, "om"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ib, err := OpenInbox(filepath.Join(dir, "id"), filepath.Join(dir, "ia"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()
	if err := o.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := ib.EnsureCursor("sub"); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	ids := make([]string, 4*(runs+1)+8)
	for i := range ids {
		ids[i] = fmt.Sprintf("event-%06d", i)
	}
	payload := make([]byte, 1024)
	next := 0
	step := func(op func(id string) error) func() {
		return func() {
			if err := op(ids[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	appendOp := step(func(id string) error { return o.Append(Entry{ID: id, Payload: payload}) })
	stageOp := step(func(id string) error { _, err := ib.Stage(id, "pub", payload); return err })
	for i := 0; i < 8; i++ { // warm the scratch, the framing buffers and the indexes
		appendOp()
	}
	next = 0
	for i := 0; i < 8; i++ {
		stageOp()
	}

	next = 8
	if n := testing.AllocsPerRun(runs, appendOp); n > 1 {
		t.Errorf("Outbox.Append allocates %.0f per call, want <= 1", n)
	}
	appended := next
	next = 8
	if n := testing.AllocsPerRun(runs, stageOp); n > 1 {
		t.Errorf("Inbox.Stage allocates %.0f per call, want <= 1", n)
	}
	staged := min(next, appended)
	next = 0
	if n := testing.AllocsPerRun(staged-1, step(func(id string) error { return o.Ack("sub", id) })); n != 0 {
		t.Errorf("Outbox.Ack allocates %.0f per call, want 0", n)
	}
	next = 0
	if n := testing.AllocsPerRun(staged-1, step(func(id string) error { return ib.Ack("sub", id) })); n != 0 {
		t.Errorf("Inbox.Ack allocates %.0f per call, want 0", n)
	}
}

// TestOutboxCopiesCallersPayload: the Outbox's ownership contract as the
// certified link uses it. Add copies the payload, so the caller may
// write over its buffer at once, and every Pending hands out a copy of
// its own. Entries that retire give their chunks back: a steady stream
// of appends and acknowledgements copies into recycled chunks.
func TestOutboxCopiesCallersPayload(t *testing.T) {
	o := openTestOutbox(t, t.TempDir())
	defer o.Close()
	if err := o.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	payload := []byte("handed over")
	if err := o.Append(Entry{ID: "e0", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	copy(payload, "written over")
	for range 2 {
		pending, err := o.Pending("sub")
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 1 || string(pending[0].Payload) != "handed over" {
			t.Fatalf("Pending = %q, want the payload as appended", pending)
		}
		copy(pending[0].Payload, "the caller's")
	}

	mem := NewMemOutbox()
	defer mem.Close()
	if err := mem.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1024)
	ids := make([]string, 2200)
	for i := range ids {
		ids[i] = fmt.Sprintf("event-%06d", i)
	}
	next := 0
	step := func() {
		id := ids[next]
		next++
		off, err := mem.Add(Entry{ID: id, Payload: big})
		if err == nil {
			err = mem.AckRuns("sub", []Run{{Lo: off, Hi: off}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for range 100 { // the store's chunks, the log's buffers, the map
		step()
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Errorf("an entry added and retired allocates %.0f times, want 0", n)
	}
}

// TestOutboxCursorOutOfOrderAcks drives the outbox's per-consumer state
// (the cursorState it shares with the inbox) through acknowledgements
// that arrive out of order, a GC in the middle, and reopens: Pending is
// what was never acknowledged, in append order, each time.
func TestOutboxCursorOutOfOrderAcks(t *testing.T) {
	dir := t.TempDir()
	open := func() *Outbox {
		o, err := OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"),
			SegmentConfig{SegmentBytes: 1}) // one record per segment: GC can drop any prefix
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	pendingIDs := func(o *Outbox, consumer string) []string {
		t.Helper()
		pending, err := o.Pending(consumer)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(pending))
		for i, e := range pending {
			ids[i] = e.ID
		}
		return ids
	}
	check := func(o *Outbox, consumer string, want ...string) {
		t.Helper()
		if got := pendingIDs(o, consumer); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Pending(%s) = %v, want %v", consumer, got, want)
		}
	}
	ack := func(o *Outbox, consumer string, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if err := o.Ack(consumer, id); err != nil {
				t.Fatal(err)
			}
		}
	}

	o := open()
	for _, c := range []string{"a", "b"} {
		if err := o.RegisterConsumer(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 8 {
		if err := o.Append(Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ack(o, "a", "e5", "e1", "e0", "e1", "e3") // frontier e1; e3, e5 above it
	ack(o, "b", "e2", "e0", "e1")             // frontier e2
	check(o, "a", "e2", "e4", "e6", "e7")
	check(o, "b", "e3", "e4", "e5", "e6", "e7")
	if cs := o.consumers["a"]; cs.acked.Floor() != 2 || len(cs.acked.Runs()) != 2 {
		t.Fatalf("a: frontier %d with runs %v above it, want 2 (e1) with 2", cs.acked.Floor(), cs.acked.Runs())
	}

	if dropped, err := o.GC(); err != nil || dropped != 2 { // e0, e1: acknowledged by both
		t.Fatalf("GC dropped %d (%v), want 2", dropped, err)
	}
	check(o, "a", "e2", "e4", "e6", "e7")
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	o = open() // the snapshot, then nothing
	check(o, "a", "e2", "e4", "e6", "e7")
	check(o, "b", "e3", "e4", "e5", "e6", "e7")
	ack(o, "a", "e2", "e4") // closes both holes: frontier runs to e5
	if cs := o.consumers["a"]; cs.acked.Floor() != 6 || len(cs.acked.Runs()) != 0 {
		t.Fatalf("a: frontier %d with runs %v above it, want 6 (e5) with none", cs.acked.Floor(), cs.acked.Runs())
	}
	if err := o.RegisterConsumer("late"); err != nil { // owed everything still held: e2 is retired
		t.Fatal(err)
	}
	check(o, "late", "e3", "e4", "e5", "e6", "e7")
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	o = open() // the snapshot, then acks and a registration after it
	defer o.Close()
	check(o, "a", "e6", "e7")
	check(o, "b", "e3", "e4", "e5", "e6", "e7")
	check(o, "late", "e3", "e4", "e5", "e6", "e7")
	if err := o.UnregisterConsumer("late"); err != nil {
		t.Fatal(err)
	}
	ack(o, "b", "e3", "e4", "e5", "e6")
	if dropped, err := o.GC(); err != nil || dropped != 4 { // e2..e5
		t.Fatalf("second GC dropped %d (%v), want 4", dropped, err)
	}
	check(o, "a", "e6", "e7")
	check(o, "b", "e7")
}

// TestOutboxAckStateBoundedByInFlight: a consumer's state follows the
// holes in what it acknowledged, not the acknowledgements. In order with
// a window in flight it is its frontier, whatever the number of entries
// the outbox has seen and still holds, and Pending returns the window
// without walking the rest; above one hole it is one run.
func TestOutboxAckStateBoundedByInFlight(t *testing.T) {
	open := func(t *testing.T) *Outbox {
		o, err := OpenOutbox(filepath.Join(t.TempDir(), "data"), filepath.Join(t.TempDir(), "meta"),
			SegmentConfig{Sync: SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { o.Close() })
		if err := o.RegisterConsumer("sub"); err != nil {
			t.Fatal(err)
		}
		return o
	}
	appendAck := func(t *testing.T, o *Outbox, add, ack string) {
		t.Helper()
		if err := o.Append(Entry{ID: add, Payload: []byte("p")}); err != nil {
			t.Fatal(err)
		}
		if ack == "" {
			return
		}
		if err := o.Ack("sub", ack); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, o *Outbox, frontier uint64, runs int, pending int, first string) {
		t.Helper()
		if cs := o.consumers["sub"]; cs.acked.Floor() != frontier || len(cs.acked.Runs()) != runs {
			t.Fatalf("frontier %d with %d runs above it, want %d and %d", cs.acked.Floor(), len(cs.acked.Runs()), frontier, runs)
		}
		got, err := o.Pending("sub")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != pending || got[0].ID != first {
			t.Fatalf("Pending = %d entries from %s, want %d from %s", len(got), got[0].ID, pending, first)
		}
	}

	t.Run("in order", func(t *testing.T) {
		o := open(t)
		const total, window = 5000, 16
		for i := 0; i < total; i++ {
			ack := ""
			if i >= window {
				ack = fmt.Sprintf("e%d", i-window)
			}
			appendAck(t, o, fmt.Sprintf("e%d", i), ack)
		}
		check(t, o, total-window, 0, window, fmt.Sprintf("e%d", total-window))
	})
	t.Run("above one hole", func(t *testing.T) {
		o := open(t)
		const above = 10_000
		appendAck(t, o, "hole", "")
		for i := 1; i <= above; i++ {
			appendAck(t, o, fmt.Sprintf("e%d", i), fmt.Sprintf("e%d", i))
		}
		check(t, o, 0, 1, 1, "hole")
	})
}

// TestOutboxAckOfLostRecordIsNotInherited: a crash under SyncBatch can
// take the data log's last record and leave the acknowledgement of it in
// the meta log. The entry appended next gets the lost record's offset;
// it must be owed, not taken for acknowledged.
func TestOutboxAckOfLostRecordIsNotInherited(t *testing.T) {
	dir := t.TempDir()
	o := openTestOutbox(t, dir)
	if err := o.RegisterConsumer("sub"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e0", "e1", "e2"} {
		if err := o.Append(Entry{ID: id, Payload: []byte(id)}); err != nil {
			t.Fatal(err)
		}
		if err := o.Ack("sub", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(filepath.Join(dir, "data"), 1)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	lost := int64(frameHeader + 4 + len("e2") + len("e2")) // e2's whole frame
	if err := os.Truncate(seg, info.Size()-lost); err != nil {
		t.Fatal(err)
	}

	o = openTestOutbox(t, dir)
	defer o.Close()
	if data, _ := o.Stats(); data.NextOffset != 3 || o.Len() != 0 {
		t.Fatalf("outbox data log ends before offset %d and holds %d entries after losing one of three acknowledged, want 3 and none",
			data.NextOffset, o.Len())
	}
	if err := o.Append(Entry{ID: "e3", Payload: []byte("e3")}); err != nil {
		t.Fatal(err)
	}
	pending, err := o.Pending("sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "e3" {
		t.Fatalf("Pending = %v, want [e3]: the lost record's acknowledgement was inherited", pending)
	}
}

// TestStageAckByNameAllocs pins the staging inbox's steady state: an
// event staged and acknowledged by its name, as a certified subscriber
// does both, allocates nothing. The data record's ID text is rendered
// into the header scratch, the name joins a run of counts, and its index
// entry lasts from the staging to the acknowledgement. While the index
// kept every name, its growth cost a few allocations per doubling (the
// limit was one per 64 events).
func TestStageAckByNameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ib := NewMemInbox()
	defer ib.Close()
	if _, err := ib.EnsureCursor("d1"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	name := codec.Name{Inc: 0x5eed, N: 0}
	step := func() {
		name.N++
		id := codec.Ident{Name: name}
		if fresh, err := ib.StageIdent(id, "pub", payload); err != nil || !fresh {
			t.Fatalf("StageIdent(%v) = %v, %v", name, fresh, err)
		}
		if err := ib.AckIdent("d1", id); err != nil {
			t.Fatal(err)
		}
	}
	for range 1000 {
		step()
	}
	got := allocs.PerRun(4096, step)
	t.Logf("%.4f allocations per event staged and acknowledged", got)
	if got > 1.0/1024 {
		t.Errorf("Stage and Ack by name allocate %.4f times per event, want none (<= %.4f)", got, 1.0/1024)
	}
	// The text wrappers key the same pair.
	if fresh, err := ib.Stage(name.String(), "pub", payload); err != nil || fresh {
		t.Errorf("staging the last name's text again = %v, %v; want the dedup hit", fresh, err)
	}
}
