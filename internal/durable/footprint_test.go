package durable

import (
	"errors"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"govents/internal/codec"
)

// footprintRecord is one line of a soak's log: what the inbox held after
// a phase, and how many staged events some cursor had not acknowledged.
type footprintRecord struct {
	phase   string
	fp      InboxFootprint
	unacked int
}

// inboxDriver stages named events into an inbox and acknowledges them
// through its cursors, counting what each cursor still owes as the
// inbox's index should.
type inboxDriver struct {
	t       *testing.T
	ib      *Inbox
	cursors []string
	owing   map[codec.Name]int // staged event -> cursors that owe it
	log     []footprintRecord
}

func (d *inboxDriver) cursor(id string) {
	d.t.Helper()
	if _, err := d.ib.EnsureCursor(id); err != nil {
		d.t.Fatal(err)
	}
	d.cursors = append(d.cursors, id)
}

func (d *inboxDriver) stage(name codec.Name) {
	d.t.Helper()
	if fresh, err := d.ib.StageIdent(codec.Ident{Name: name}, "pub", []byte("payload")); err != nil || !fresh {
		d.t.Fatalf("StageIdent(%v) = %v, %v", name, fresh, err)
	}
	if len(d.cursors) > 0 {
		d.owing[name] = len(d.cursors)
	}
}

// ack acknowledges name through cursor, which owes it.
func (d *inboxDriver) ack(cursor string, name codec.Name) {
	d.t.Helper()
	if err := d.ib.AckIdent(cursor, codec.Ident{Name: name}); err != nil {
		d.t.Fatalf("AckIdent(%s, %v): %v", cursor, name, err)
	}
	if d.owing[name]--; d.owing[name] == 0 {
		delete(d.owing, name)
	}
}

func (d *inboxDriver) record(phase string) footprintRecord {
	r := footprintRecord{phase: phase, fp: d.ib.Footprint(), unacked: len(d.owing)}
	d.log = append(d.log, r)
	d.t.Logf("%-22s %+v, %d unacknowledged", phase, r.fp, r.unacked)
	if r.fp.Owed > r.unacked {
		d.t.Errorf("%s: the index holds %d events, more than the %d some cursor owes", phase, r.fp.Owed, r.unacked)
	}
	return r
}

// TestInboxFootprintStaysFlat is the staging inbox's soak: one cursor
// acknowledging named events 64 behind the one staged, then a second
// publisher incarnation with a hole in its counts and a cursor that
// comes late. After 10⁴ and after 10⁵ events the inbox holds the same:
// one incarnation, one run of counts, and the 64 in flight. The second
// incarnation adds one incarnation and two runs; what the late cursor
// owes stays in the index until it acknowledges it.
func TestInboxFootprintStaysFlat(t *testing.T) {
	ib := NewMemInbox()
	defer ib.Close()
	d := &inboxDriver{t: t, ib: ib, owing: map[codec.Name]int{}}
	d.cursor("d1")
	const window = 64
	first := codec.Name{Inc: 0xa}
	stream := func(to uint64) {
		for ; first.N < to; first.N++ {
			d.stage(codec.Name{Inc: first.Inc, N: first.N + 1})
			if first.N >= window {
				d.ack("d1", codec.Name{Inc: first.Inc, N: first.N + 1 - window})
			}
		}
	}
	stream(1e4)
	d.record("1e4 events")
	stream(1e5)
	d.record("1e5 events")
	if d.log[1].fp != d.log[0].fp {
		t.Errorf("the footprint grew from %+v after 10⁴ events to %+v after 10⁵", d.log[0].fp, d.log[1].fp)
	}

	// A second incarnation: counts 1-100 and 111-200, the hole between
	// them never staged; a late cursor comes after count 150, and
	// acknowledges only the even counts it is owed.
	second := uint64(0xb)
	for n := uint64(1); n <= 200; n++ {
		if n > 100 && n <= 110 {
			continue
		}
		if n == 151 {
			d.cursor("late")
		}
		d.stage(codec.Name{Inc: second, N: n})
	}
	for n := uint64(1); n <= 200; n++ {
		name := codec.Name{Inc: second, N: n}
		if n > 100 && n <= 110 {
			if err := ib.AckIdent("d1", codec.Ident{Name: name}); !errors.Is(err, ErrUnknownEvent) {
				t.Errorf("acknowledging %v, in the hole, = %v; want ErrUnknownEvent", name, err)
			}
			continue
		}
		d.ack("d1", name)
		if n > 150 && n%2 == 0 {
			d.ack("late", name)
		}
	}
	// The late cursor was not owed what came before it.
	if err := ib.AckIdent("late", codec.Ident{Name: codec.Name{Inc: second, N: 150}}); err != nil {
		t.Errorf("a late cursor's ack of an event staged before it = %v, want the no-op", err)
	}
	d.record("second incarnation")

	for name := range d.owing {
		if name.Inc == first.Inc {
			d.ack("d1", name)
		} else {
			d.ack("late", name)
		}
	}
	d.record("everything acknowledged")

	// One run per incarnation and one per hole; in the index, what the
	// late cursor has not acknowledged besides the 64 in flight.
	want := []footprintRecord{
		{"1e4 events", InboxFootprint{Incarnations: 1, Runs: 1, Owed: window}, window},
		{"1e5 events", InboxFootprint{Incarnations: 1, Runs: 1, Owed: window}, window},
		{"second incarnation", InboxFootprint{Incarnations: 2, Runs: 2 + 1, Owed: window + 25}, window + 25},
		{"everything acknowledged", InboxFootprint{Incarnations: 2, Runs: 2 + 1}, 0},
	}
	if !slices.Equal(d.log, want) {
		t.Errorf("footprint log:\n%+v\nwant\n%+v", d.log, want)
	}
}

// TestInboxReopenRebuildsFootprint: a file-backed inbox holding two
// incarnations, a hole, a late cursor, an event named by text and
// events still owed reopens to the same footprint, replays the same
// events, and treats each acknowledgement as before it closed.
func TestInboxReopenRebuildsFootprint(t *testing.T) {
	dir := t.TempDir()
	open := func() *Inbox {
		ib, err := OpenInbox(filepath.Join(dir, "data"), filepath.Join(dir, "acks"), SegmentConfig{SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		return ib
	}
	ib := open()
	d := &inboxDriver{t: t, ib: ib, owing: map[codec.Name]int{}}
	name := func(inc, n uint64) codec.Name { return codec.Name{Inc: inc, N: n} }
	for n := uint64(1); n <= 5; n++ {
		d.stage(name(1, n)) // before any cursor: owed to none
	}
	d.cursor("d1")
	for n := uint64(6); n <= 30; n++ {
		if n != 12 {
			d.stage(name(1, n))
		}
	}
	if _, err := ib.Stage("s0", "pub", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	d.cursor("late")
	for n := uint64(1); n <= 10; n++ {
		d.stage(name(2, n))
	}
	for n := uint64(6); n <= 30; n++ {
		if n != 12 && n%3 != 0 {
			d.ack("d1", name(1, n))
		}
	}
	for n := uint64(1); n <= 10; n += 2 {
		d.ack("late", name(2, n))
	}
	before := d.record("before closing")
	replays := func(ib *Inbox) map[string][]string {
		out := map[string][]string{}
		for _, c := range d.cursors {
			out[c] = replayIDs(t, ib, c)
		}
		return out
	}
	owed := replays(ib)
	if err := ib.Close(); err != nil {
		t.Fatal(err)
	}

	ib = open()
	defer ib.Close()
	d.ib = ib
	if after := d.record("reopened"); after.fp != before.fp {
		t.Errorf("reopened to %+v, closed holding %+v", after.fp, before.fp)
	}
	if want := (InboxFootprint{Incarnations: 2, Runs: 3, Owed: before.unacked, Texts: 1}); before.fp != want {
		t.Errorf("the inbox holds %+v, want %+v", before.fp, want)
	}
	if got := replays(ib); !maps.EqualFunc(got, owed, slices.Equal[[]string]) {
		t.Errorf("reopened, it replays %v; closed, it replayed %v", got, owed)
	}
	for _, c := range []struct {
		cursor string
		id     codec.Ident
		want   error
	}{
		{"d1", codec.Ident{Name: name(1, 3)}, nil},   // staged before the cursor
		{"d1", codec.Ident{Name: name(1, 7)}, nil},   // acknowledged
		{"late", codec.Ident{Name: name(1, 7)}, nil}, // staged before the late cursor
		{"late", codec.Ident{Name: name(1, 9)}, nil}, // the same, and still owed to d1
		{"d1", codec.Ident{Name: name(1, 12)}, ErrUnknownEvent},
		{"d1", codec.Ident{Name: name(3, 1)}, ErrUnknownEvent},
		{"d1", codec.IdentOf("s1"), ErrUnknownEvent},
	} {
		if err := ib.AckIdent(c.cursor, c.id); !errors.Is(err, c.want) {
			t.Errorf("AckIdent(%s, %s) = %v, want %v", c.cursor, c.id.Text(), err, c.want)
		}
	}
	if fresh, err := ib.StageIdent(codec.Ident{Name: name(1, 29)}, "pub", nil); fresh || err != nil {
		t.Errorf("staging a name again after the reopen = %v, %v; want the dedup hit", fresh, err)
	}
	for _, c := range d.cursors {
		if err := ib.Replay(c, func(id, _ string, _ []byte) error { return ib.Ack(c, id) }); err != nil {
			t.Fatal(err)
		}
	}
	if fp := ib.Footprint(); fp.Owed != 0 {
		t.Errorf("with every replayed event acknowledged the index holds %d", fp.Owed)
	}
}

// TestInboxAllocsPerEvent pins the heap a file-backed SyncBatch inbox
// takes for one named 1 KiB event staged and acknowledged through one
// cursor, after 3,400 events to warm it (the benchmark's certified
// workload's rate for one second), over 11,333 (a 20-second run's low
// round): its record headers go into scratch, and its index holds only
// what the cursor owes, so what is left is a segment roll's share.
// While the inbox kept every name it had staged in a map, this read 217
// B per event, nearly all of it the map's growth.
func TestInboxAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dir := t.TempDir()
	ib, err := OpenInbox(filepath.Join(dir, "data"), filepath.Join(dir, "acks"), SegmentConfig{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()
	if _, err := ib.EnsureCursor("d1"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	name := codec.Name{Inc: 0x5eed}
	run := func(n int) {
		for range n {
			name.N++
			id := codec.Ident{Name: name}
			if _, err := ib.StageIdent(id, "pub", payload); err != nil {
				t.Fatal(err)
			}
			if err := ib.AckIdent("d1", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(3400)
	const events = 11333
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(events)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / events
	t.Logf("%.1f B and %.4f allocations per event staged and acknowledged",
		perEvent, float64(after.Mallocs-before.Mallocs)/events)
	if perEvent > 8 {
		t.Errorf("staging and acknowledging a named event allocates %.1f B, want <= 8", perEvent)
	}
}
