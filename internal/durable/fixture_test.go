package durable

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"govents/internal/store"
)

// fixtureEvent is one entry of testdata/parent-pr17/expect.json.
type fixtureEvent struct {
	ID      string
	Origin  string `json:",omitempty"`
	Payload string
}

// TestOpensDirectoryWrittenByParent: the on-disk formats did not move.
// testdata/parent-pr17/dir was written by the commit before the outbox
// shared the inbox's cursor and records were framed in place (by
// mkfixture.go beside it: small segments, out-of-order acknowledgements,
// a snapshot in both meta logs and history after each), and expect.json
// is what that commit read back from it. This code must read the same,
// go on appending and acknowledging, compact, and read its own
// compaction back.
func TestOpensDirectoryWrittenByParent(t *testing.T) {
	const class = "pkg.Quote"
	var expect struct {
		Pending map[string][]fixtureEvent
		Replay  map[string][]fixtureEvent
		Len     int
	}
	raw, err := os.ReadFile("testdata/parent-pr17/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &expect); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // opening appends and compacts: work on a copy
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-pr17/dir")); err != nil {
		t.Fatal(err)
	}

	read := func(m *Manager) (pending, replay map[string][]fixtureEvent, n int) {
		t.Helper()
		ob, err := m.OutboxFor(class)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := m.InboxFor(class)
		if err != nil {
			t.Fatal(err)
		}
		consumers, err := ob.Consumers()
		if err != nil {
			t.Fatal(err)
		}
		pending, replay = map[string][]fixtureEvent{}, map[string][]fixtureEvent{}
		for _, c := range consumers {
			entries, err := ob.Pending(c)
			if err != nil {
				t.Fatal(err)
			}
			pending[c] = []fixtureEvent{}
			for _, e := range entries {
				pending[c] = append(pending[c], fixtureEvent{ID: e.ID, Payload: string(e.Payload)})
			}
		}
		for d := range expect.Replay {
			replay[d] = []fixtureEvent{}
			if err := ib.Replay(d, func(id, origin string, payload []byte) error {
				replay[d] = append(replay[d], fixtureEvent{id, origin, string(payload)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return pending, replay, ob.Len()
	}
	cfg := Config{Dir: dir, SegmentBytes: 96}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if classes := m.Classes(); len(classes) != 1 || classes[0] != class {
		t.Fatalf("classes = %v, want [%s]", classes, class)
	}
	pending, replay, n := read(m)
	if !reflect.DeepEqual(pending, expect.Pending) {
		t.Errorf("outbox pending:\n got %v\nwant %v", pending, expect.Pending)
	}
	if !reflect.DeepEqual(replay, expect.Replay) {
		t.Errorf("inbox replay:\n got %v\nwant %v", replay, expect.Replay)
	}
	if n != expect.Len {
		t.Errorf("outbox holds %d entries, want %d", n, expect.Len)
	}
	if st := m.Stats(); st.TornTails != 0 {
		t.Errorf("%d torn tails in a cleanly closed directory", st.TornTails)
	}

	// Go on where the parent stopped: dedup against its records, new
	// records behind them, acknowledgements that let both sides compact.
	ob, _ := m.OutboxFor(class)
	ib, _ := m.InboxFor(class)
	if fresh, err := ib.Stage("s5", "pub", []byte("again")); err != nil || fresh {
		t.Fatalf("restaging the parent's s5: fresh=%v err=%v", fresh, err)
	}
	if err := ob.Append(store.Entry{ID: "e7", Payload: []byte("again")}); err != nil || ob.Len() != expect.Len {
		t.Fatalf("re-appending the parent's e7: err=%v, %d entries", err, ob.Len())
	}
	if err := ob.Append(store.Entry{ID: "e12", Payload: []byte("payload-12")}); err != nil {
		t.Fatal(err)
	}
	for c, owed := range expect.Pending {
		for _, e := range owed {
			if e.ID == "e11" {
				continue // stays owed, with e12
			}
			if err := ob.Ack(c, e.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range expect.Replay["d1"] {
		if err := ib.Ack("d1", e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SegmentsCompacted == 0 {
		t.Error("compaction dropped nothing although every sealed outbox segment is acknowledged")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pending, replay, _ = read(m)
	tail := []fixtureEvent{{ID: "e11", Payload: "payload-11"}, {ID: "e12", Payload: "payload-12"}}
	for c := range expect.Pending {
		if !reflect.DeepEqual(pending[c], tail) {
			t.Errorf("after compaction and reopen, pending for %s = %v, want %v", c, pending[c], tail)
		}
	}
	if len(replay["d1"]) != 0 || !reflect.DeepEqual(replay["d2"], expect.Replay["d2"]) {
		t.Errorf("after compaction and reopen, replay = %v, want d1 empty and d2 %v", replay, expect.Replay["d2"])
	}

}

// TestOutboxOpensParentsPerOffsetAcks: the meta log's old
// acknowledgement record, one per offset, is still read.
// testdata/parent-pr22/dir is an outbox written by the commit before an
// acknowledgement became one record of runs (by mkfixture.go.txt beside
// it: two consumers, out-of-order per-offset acknowledgements, a GC
// snapshot, history after it), and expect.json is what that commit read
// back. This code reads the same, acknowledges a run, and reads its own
// record back after a reopen; cut anywhere inside, that record is a torn
// tail like any other and the run is owed again.
func TestOutboxOpensParentsPerOffsetAcks(t *testing.T) {
	var expect struct {
		Pending map[string][]string
		Len     int
	}
	raw, err := os.ReadFile("testdata/parent-pr22/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &expect); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // acknowledging appends: work on a copy
	if err := os.CopyFS(dir, os.DirFS("testdata/parent-pr22/dir")); err != nil {
		t.Fatal(err)
	}
	data, meta := filepath.Join(dir, "outbox-data"), filepath.Join(dir, "outbox-meta")
	open := func() *Outbox {
		t.Helper()
		ob, err := OpenOutbox(data, meta, SegmentConfig{SegmentBytes: 96})
		if err != nil {
			t.Fatal(err)
		}
		return ob
	}
	owed := func(ob *Outbox) map[string][]string {
		t.Helper()
		out := map[string][]string{}
		for c := range expect.Pending {
			pending, err := ob.Pending(c)
			if err != nil {
				t.Fatal(err)
			}
			out[c] = []string{}
			for _, e := range pending {
				out[c] = append(out[c], e.ID)
			}
		}
		return out
	}

	ob := open()
	if got := owed(ob); !reflect.DeepEqual(got, expect.Pending) || ob.Len() != expect.Len {
		t.Fatalf("read %v in %d entries, the parent read %v in %d", got, ob.Len(), expect.Pending, expect.Len)
	}
	if _, tail := ob.Stats(); tail.TornTails != 0 {
		t.Errorf("%d torn tails in a cleanly closed outbox", tail.TornTails)
	}
	// e6..e9 sit at offsets 7..10; sub-b has acknowledged e5 and e9 of
	// its backlog out of order already.
	if err := ob.AckRuns("sub-b", []store.Run{{Lo: 7, Hi: 10}, {Lo: 2, Hi: 3}}); err != nil {
		t.Fatal(err)
	}
	after := map[string][]string{"sub-a": expect.Pending["sub-a"], "sub-b": {"e4", "e10", "e11", "e12"}}
	if got := owed(ob); !reflect.DeepEqual(got, after) {
		t.Fatalf("after acknowledging offsets 7..10: owed %v, want %v", got, after)
	}
	_, before := ob.Stats()
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	ob = open()
	if got := owed(ob); !reflect.DeepEqual(got, after) {
		t.Fatalf("reopened: owed %v, want %v", got, after)
	}
	if _, st := ob.Stats(); st.Records != before.Records {
		t.Errorf("meta log holds %d records reopened, %d before", st.Records, before.Records)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	// The run record is the meta log's last, alone in the newest segment
	// or behind the parent's: cut it at every byte.
	segs, err := filepath.Glob(filepath.Join(meta, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("meta segments: %v, %v", segs, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	full, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	record := frameHeader + 1 + 4 + len("sub-b") + 16 // kind, consumer blob, one run: the other named nothing live
	for cut := len(full) - record + 1; cut < len(full); cut++ {
		if err := os.WriteFile(last, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ob := open()
		if got := owed(ob); !reflect.DeepEqual(got, expect.Pending) {
			t.Fatalf("cut at %d of %d: owed %v, want the parent's %v", cut, len(full), got, expect.Pending)
		}
		if _, st := ob.Stats(); st.TornTails != 1 {
			t.Fatalf("cut at %d of %d: %d torn tails, want 1", cut, len(full), st.TornTails)
		}
		if err := ob.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
