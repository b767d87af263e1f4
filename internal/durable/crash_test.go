package durable

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"govents/internal/codec"
)

// The crash enumeration runs a small workload once over a simDisk, then
// crashes the disk after every operation it recorded, with every way of
// losing what was not yet synced (each write kept whole, torn, or lost;
// under SyncAlways, torn at every byte), recovers, and checks the
// recovered state against a model. The model is the workload's calls,
// of which a call counts if the write it made survived the crash: an
// entry (or staged event) is owed to a consumer (or cursor) that
// survived registration and has no surviving acknowledgement of it, and
// an acknowledgement of an offset past the last surviving record counts
// for nothing. Then it goes on from the recovered state and checks
// exactly-once: what the crash lost is owed once when published again,
// what comes after is owed to every consumer, and once everything is
// acknowledged, compacted and reopened nothing is owed.

// crashStep is one call of the workload, and the write it made to the
// log the call is about (rec indexes simDisk.records; -1 is none).
type crashStep struct {
	kind    string   // add, ack, register, gc, reopen (outbox); stage, cursor, ack, compact, reopen (inbox)
	who     string   // the consumer or durable cursor
	id      string   // the entry or event
	off     uint64   // the offset an add or stage got, or an inbox ack named
	runs    []Run    // an outbox ack's
	retired []uint64 // register: the offsets retired when the consumer came
	start   uint64   // cursor: the offset it starts after
	rec     int
	done    int // the number of disk records when the call returned
}

// crashWorkload is a workload's calls, on the disk they were made on,
// and the IDs of the events an inbox workload staged.
type crashWorkload struct {
	disk  *simDisk
	steps []crashStep
	ids   []string
}

// call runs fn as the next step, attributing to it the one write it
// makes to a file under dir.
func (w *crashWorkload) call(t *testing.T, s crashStep, dir string, fn func(s *crashStep) error) {
	t.Helper()
	from := len(w.disk.records)
	if err := fn(&s); err != nil {
		t.Fatalf("workload %s %s %s: %v", s.kind, s.who, s.id, err)
	}
	s.rec, s.done = -1, len(w.disk.records)
	for i := from; i < s.done; i++ {
		if r := w.disk.records[i]; r.Op == opWrite && filepath.Dir(r.File) == dir {
			if s.rec >= 0 {
				t.Fatalf("workload %s %s %s wrote twice to %s", s.kind, s.who, s.id, dir)
			}
			s.rec = i
		}
	}
	w.steps = append(w.steps, s)
}

// crashCfg is the segment config of the enumeration: segments small
// enough for GC to drop some and for rolls to seal some.
func crashCfg(policy SyncPolicy, disk *simDisk) SegmentConfig {
	return SegmentConfig{SegmentBytes: 128, Sync: policy, fs: disk}
}

const (
	obData, obMeta = "ob/data", "ob/meta"
	ibData, ibAcks = "ib/data", "ib/acks"
)

// crashIDs are the workload's entry (event) IDs.
var crashIDs = func() []string {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("e%02d", i)
	}
	return ids
}()

// crashNames are the texts of names, 1 to 20 of one incarnation: IDs
// the inbox deduplicates by the runs of counts it keeps, where it keeps
// crashIDs' offsets by their text.
var crashNames = func() []string {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = codec.Name{Inc: 0x1d, N: uint64(i + 1)}.String()
	}
	return ids
}()

// outboxWorkload: c1 registers; three entries, c1 acknowledging the
// second first (retired: c1 is alone), so c2, registering next, is
// owed the first and third and not the second; then seventeen more,
// c1 acknowledging each at once and c2 in runs every third (its first
// run spans the retired offset); GC after the tenth, a clean reopen
// after the fifteenth.
func outboxWorkload(t *testing.T, policy SyncPolicy) *crashWorkload {
	w := &crashWorkload{disk: newSimDisk()}
	open := func() *Outbox {
		o, err := OpenOutbox(obData, obMeta, crashCfg(policy, w.disk))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	o := open()
	register := func(c string) {
		w.call(t, crashStep{kind: "register", who: c}, obMeta, func(*crashStep) error { return o.RegisterConsumer(c) })
	}
	offs := map[string]uint64{}
	add := func(id string) {
		w.call(t, crashStep{kind: "add", id: id}, obData, func(s *crashStep) (err error) {
			s.off, err = o.Add(Entry{ID: id, Payload: []byte("payload-" + id)})
			offs[id] = s.off
			return err
		})
	}
	ack := func(c string, runs ...Run) {
		w.call(t, crashStep{kind: "ack", who: c, runs: runs}, obMeta, func(*crashStep) error { return o.AckRuns(c, runs) })
	}
	at := func(id string) Run { return Run{Lo: offs[id], Hi: offs[id]} }

	register("c1")
	for _, id := range crashIDs[:3] {
		add(id)
	}
	ack("c1", at("e01"))
	register("c2")
	ack("c1", at("e00"), at("e02"))
	c2 := uint64(1)
	for i := 3; i < len(crashIDs); i++ {
		id := crashIDs[i]
		add(id)
		ack("c1", at(id))
		if i%3 == 2 {
			ack("c2", Run{Lo: c2, Hi: offs[id]})
			c2 = offs[id] + 1
		}
		switch i {
		case 9:
			w.call(t, crashStep{kind: "gc"}, obMeta, func(*crashStep) error { _, err := o.GC(); return err })
		case 14:
			w.call(t, crashStep{kind: "reopen"}, obMeta, func(*crashStep) error {
				err := o.Close()
				o = open()
				return err
			})
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// What each late registration found retired, for the model.
	obModel(w.steps, func(int) bool { return true }, true)
	return w
}

// obState is the outbox the model expects: the surviving entries by
// offset, and each registered consumer's acknowledged offsets.
type obState struct {
	present map[uint64]string
	acked   map[string]map[uint64]bool
	last    uint64
}

func (st *obState) ackedByAll(off uint64) bool {
	for _, a := range st.acked {
		if !a[off] {
			return false
		}
	}
	return len(st.acked) > 0
}

// obModel walks the steps whose write survived. With fill, every write
// survives and each register step is given what was retired then.
func obModel(steps []crashStep, survived func(rec int) bool, fill bool) *obState {
	st := &obState{present: map[uint64]string{}, acked: map[string]map[uint64]bool{}}
	for _, s := range steps {
		if s.kind == "add" && survived(s.rec) {
			st.last = max(st.last, s.off)
		}
	}
	for i := range steps {
		s := &steps[i]
		if !survived(s.rec) {
			continue
		}
		switch s.kind {
		case "add":
			st.present[s.off] = s.id
		case "register":
			if fill {
				s.retired = nil
				for off := range st.present {
					if st.ackedByAll(off) {
						s.retired = append(s.retired, off)
					}
				}
			}
			if st.acked[s.who] == nil {
				a := map[uint64]bool{}
				for _, off := range s.retired {
					a[off] = off <= st.last
				}
				st.acked[s.who] = a
			}
		case "ack":
			if a := st.acked[s.who]; a != nil {
				for _, r := range s.runs {
					for off := r.Lo; off <= min(r.Hi, st.last); off++ {
						a[off] = true
					}
				}
			}
		}
	}
	return st
}

// pending is what the model owes consumer c, in offset order.
func (st *obState) pending(c string) []string {
	var offs []uint64
	for off := range st.present {
		if !st.acked[c][off] {
			offs = append(offs, off)
		}
	}
	slices.Sort(offs)
	out := []string{}
	for _, off := range offs {
		out = append(out, st.present[off])
	}
	return out
}

// held is how many entries the model's outbox holds in memory.
func (st *obState) held() int {
	n := 0
	for off := range st.present {
		if !st.ackedByAll(off) {
			n++
		}
	}
	return n
}

func pendingIDs(o *Outbox, c string) ([]string, error) {
	pending, err := o.Pending(c)
	out := []string{}
	for _, e := range pending {
		if string(e.Payload) != "payload-"+e.ID {
			return nil, fmt.Errorf("entry %s at %d carries %q", e.ID, e.Offset, e.Payload)
		}
		out = append(out, e.ID)
	}
	return out, err
}

// checkOutbox recovers the outbox from a crashed disk and holds it to
// the model, then goes on from it. It returns the first disagreement.
func checkOutbox(w *crashWorkload, policy SyncPolicy, disk *simDisk, survived func(int) bool) error {
	st := obModel(w.steps, survived, false)
	open := func() (*Outbox, error) { return OpenOutbox(obData, obMeta, crashCfg(policy, disk)) }
	o, err := open()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = o.Close() }()
	consumers := make([]string, 0, len(st.acked))
	for c := range st.acked {
		consumers = append(consumers, c)
	}
	sort.Strings(consumers)
	if got, _ := o.Consumers(); !slices.Equal(got, consumers) {
		return fmt.Errorf("consumers %v, model %v", got, consumers)
	}
	for _, c := range consumers {
		got, err := pendingIDs(o, c)
		if want := st.pending(c); err != nil || !slices.Equal(got, want) {
			return fmt.Errorf("%s owed %v (%v), model %v", c, got, err, want)
		}
	}
	if o.Len() != st.held() {
		return fmt.Errorf("outbox holds %d entries, model %d", o.Len(), st.held())
	}

	// Exactly-once from here: each entry the crash lost, published
	// again, and two new ones are owed once to every consumer.
	var again []string
	for _, id := range crashIDs {
		if !slices.Contains(values(st.present), id) {
			again = append(again, id)
		}
	}
	again = append(again, "after-0", "after-1")
	for _, id := range again {
		if _, err := o.Add(Entry{ID: id, Payload: []byte("payload-" + id)}); err != nil {
			return fmt.Errorf("add %s: %w", id, err)
		}
	}
	for reopened := range 2 { // and what a reopen recovers is the same
		for _, c := range consumers {
			got, err := pendingIDs(o, c)
			if want := append(st.pending(c), again...); err != nil || !slices.Equal(got, want) {
				return fmt.Errorf("after publishing %v again (reopened %d times): %s owed %v (%v), want %v", again, reopened, c, got, err, want)
			}
		}
		if err := o.Close(); err != nil {
			return err
		}
		if o, err = open(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
	}
	for _, c := range consumers {
		if err := o.AckRuns(c, []Run{{Lo: 0, Hi: math.MaxUint64}}); err != nil {
			return err
		}
	}
	if len(consumers) > 0 && o.Len() != 0 {
		return fmt.Errorf("outbox holds %d entries with everything acknowledged", o.Len())
	}
	if _, err := o.GC(); err != nil {
		return fmt.Errorf("GC: %w", err)
	}
	if err := o.Close(); err != nil {
		return err
	}
	if o, err = open(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	for _, c := range consumers {
		if got, err := pendingIDs(o, c); err != nil || len(got) != 0 {
			return fmt.Errorf("reopened with everything acknowledged: %s owed %v (%v)", c, got, err)
		}
	}
	if len(consumers) > 0 && o.Len() != 0 {
		return fmt.Errorf("reopened with everything acknowledged: outbox holds %d entries", o.Len())
	}
	return nil
}

func values(m map[uint64]string) []string {
	out := make([]string, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// inboxWorkload mirrors outboxWorkload: d1's cursor; three events, d1
// acknowledging the second first; d2's cursor, owed from the fourth
// on; seventeen more, d1 acknowledging each at once and d2 every third
// three at a time; Compact after the tenth, a clean reopen after the
// fifteenth. ids are the events' IDs, twenty of them.
func inboxWorkload(t *testing.T, policy SyncPolicy, ids []string) *crashWorkload {
	w := &crashWorkload{disk: newSimDisk(), ids: ids}
	open := func() *Inbox {
		ib, err := OpenInbox(ibData, ibAcks, crashCfg(policy, w.disk))
		if err != nil {
			t.Fatal(err)
		}
		return ib
	}
	ib := open()
	offs := map[string]uint64{}
	cursor := func(d string) {
		w.call(t, crashStep{kind: "cursor", who: d, start: uint64(len(offs))}, ibAcks, func(*crashStep) error {
			_, err := ib.EnsureCursor(d)
			return err
		})
	}
	stage := func(id string) {
		offs[id] = uint64(len(offs) + 1)
		w.call(t, crashStep{kind: "stage", id: id, off: offs[id]}, ibData, func(*crashStep) error {
			_, err := ib.Stage(id, "pub", []byte("payload-"+id))
			return err
		})
	}
	ack := func(d, id string) {
		w.call(t, crashStep{kind: "ack", who: d, id: id, off: offs[id]}, ibAcks, func(*crashStep) error { return ib.Ack(d, id) })
	}

	cursor("d1")
	for _, id := range ids[:3] {
		stage(id)
	}
	ack("d1", ids[1])
	cursor("d2")
	ack("d1", ids[0])
	ack("d1", ids[2])
	for i := 3; i < len(ids); i++ {
		id := ids[i]
		stage(id)
		ack("d1", id)
		if i%3 == 2 {
			for _, prev := range ids[i-2 : i+1] {
				ack("d2", prev)
			}
		}
		switch i {
		case 9:
			w.call(t, crashStep{kind: "compact"}, ibAcks, func(*crashStep) error { return ib.Compact() })
		case 14:
			w.call(t, crashStep{kind: "reopen"}, ibAcks, func(*crashStep) error {
				err := ib.Close()
				ib = open()
				return err
			})
		}
	}
	if err := ib.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

// ibState is the inbox the model expects.
type ibState struct {
	staged  map[uint64]string
	cursors map[string]*ibCursor
	last    uint64
}

type ibCursor struct {
	start uint64
	acked map[uint64]bool
}

func ibModel(steps []crashStep, survived func(rec int) bool) *ibState {
	st := &ibState{staged: map[uint64]string{}, cursors: map[string]*ibCursor{}}
	for _, s := range steps {
		if s.kind == "stage" && survived(s.rec) {
			st.last = max(st.last, s.off)
		}
	}
	for _, s := range steps {
		if !survived(s.rec) {
			continue
		}
		switch s.kind {
		case "stage":
			st.staged[s.off] = s.id
		case "cursor":
			if st.cursors[s.who] == nil {
				st.cursors[s.who] = &ibCursor{start: min(s.start, st.last), acked: map[uint64]bool{}}
			}
		case "ack":
			if c := st.cursors[s.who]; c != nil && s.off <= st.last {
				c.acked[s.off] = true
			}
		}
	}
	return st
}

// replay is what the model owes cursor d: staged after its start, not
// acknowledged, and not compacted.
func (st *ibState) replay(d string, compacted map[uint64]bool) []string {
	c := st.cursors[d]
	var offs []uint64
	for off := range st.staged {
		if off > c.start && !c.acked[off] && !compacted[off] {
			offs = append(offs, off)
		}
	}
	slices.Sort(offs)
	out := []string{}
	for _, off := range offs {
		out = append(out, st.staged[off])
	}
	return out
}

func replayed(ib *Inbox, d string) ([]string, error) {
	out := []string{}
	err := ib.Replay(d, func(id, origin string, payload []byte) error {
		if string(payload) != "payload-"+id || origin != "pub" {
			return fmt.Errorf("event %s from %s carries %q", id, origin, payload)
		}
		out = append(out, id)
		return nil
	})
	return out, err
}

// checkInbox recovers the inbox from a crashed disk and holds it to the
// model, then goes on from it.
func checkInbox(w *crashWorkload, policy SyncPolicy, disk *simDisk, survived, compactedRec func(int) bool) error {
	st := ibModel(w.steps, survived)
	compacted := map[uint64]bool{}
	for _, s := range w.steps {
		if s.kind == "stage" && compactedRec(s.rec) {
			compacted[s.off] = true
			for d, c := range st.cursors {
				if !c.acked[s.off] && s.off > c.start {
					return fmt.Errorf("compaction dropped %s, owed to %s", s.id, d)
				}
			}
		}
	}
	open := func() (*Inbox, error) { return OpenInbox(ibData, ibAcks, crashCfg(policy, disk)) }
	ib, err := open()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = ib.Close() }()
	cursors := []string{"d1", "d2"}
	for _, d := range cursors {
		if ib.HasCursor(d) != (st.cursors[d] != nil) {
			return fmt.Errorf("cursor %s recovered %v, model %v", d, ib.HasCursor(d), st.cursors[d] != nil)
		}
		if st.cursors[d] == nil {
			continue
		}
		got, err := replayed(ib, d)
		if want := st.replay(d, compacted); err != nil || !slices.Equal(got, want) {
			return fmt.Errorf("%s replays %v (%v), model %v", d, got, err, want)
		}
	}

	// Exactly-once from here: every cursor is there again; each event
	// delivered again is fresh if and only if the crash lost it (or
	// compaction forgot it), and is then owed once, as are two new ones.
	for _, d := range cursors {
		if _, err := ib.EnsureCursor(d); err != nil {
			return err
		}
	}
	held := map[string]bool{}
	for off, id := range st.staged {
		held[id] = !compacted[off]
	}
	var again []string
	for _, id := range append(slices.Clone(w.ids), "after-0", "after-1") {
		fresh, err := ib.Stage(id, "pub", []byte("payload-"+id))
		if err != nil {
			return fmt.Errorf("stage %s: %w", id, err)
		}
		if fresh == held[id] {
			return fmt.Errorf("%s delivered again: fresh %v, model %v", id, fresh, !held[id])
		}
		if fresh {
			again = append(again, id)
		}
	}
	owed := map[string][]string{}
	for reopened := range 2 { // and what a reopen recovers is the same
		for _, d := range cursors {
			var want []string
			if st.cursors[d] != nil {
				want = st.replay(d, compacted)
			}
			want = append(want, again...)
			got, err := replayed(ib, d)
			if err != nil || !slices.Equal(got, want) {
				return fmt.Errorf("after %v delivered again (reopened %d times): %s replays %v (%v), want %v", again, reopened, d, got, err, want)
			}
			owed[d] = got
		}
		if err := ib.Close(); err != nil {
			return err
		}
		if ib, err = open(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
	}
	for d, ids := range owed {
		for _, id := range ids {
			if err := ib.Ack(d, id); err != nil {
				return err
			}
		}
	}
	if err := ib.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	if err := ib.Close(); err != nil {
		return err
	}
	if ib, err = open(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	for _, d := range cursors {
		if got, err := replayed(ib, d); err != nil || len(got) != 0 {
			return fmt.Errorf("reopened with everything acknowledged: %s replays %v (%v)", d, got, err)
		}
	}
	return nil
}

// crashEnumeration crashes the workload's disk at every point and
// checks each recovery. It returns the number of crashes, and the most
// records of the log the steps of each kind write that a crash lost
// after the call that wrote it had returned.
func crashEnumeration(t *testing.T, w *crashWorkload, policy SyncPolicy,
	check func(disk *simDisk, survived, compacted func(int) bool) error) (crashes int, lost map[string]int) {
	for _, r := range w.disk.records {
		if r.Op == opTruncate {
			t.Fatalf("the workload truncated %s: the model assumes it never does", r.File)
		}
	}
	lost = map[string]int{}
	for k := 0; k <= len(w.disk.records); k++ {
		st := w.disk.stateAt(k)
		var names []string
		for name, f := range st {
			if len(f.content) > f.synced {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		// Where each file with unsynced bytes may be cut: before them
		// all, after each write, and inside each write (at every byte
		// under SyncAlways, where the unsynced write is the one in
		// progress; at its middle under SyncBatch).
		cuts := make([][]int, len(names))
		for i, name := range names {
			f := st[name]
			cuts[i] = []int{0}
			for _, r := range w.disk.records[:k] {
				end := int(r.Offset+r.Length) - f.synced
				if r.Op != opWrite || r.File != name || end <= 0 {
					continue
				}
				begin := max(int(r.Offset)-f.synced, 0)
				if policy == SyncAlways {
					for c := begin + 1; c < end; c++ {
						cuts[i] = append(cuts[i], c)
					}
				} else if mid := (begin + end) / 2; mid > begin {
					cuts[i] = append(cuts[i], mid)
				}
				cuts[i] = append(cuts[i], end)
			}
		}
		cut := make([]int, len(names))
		var each func(i int)
		each = func(i int) {
			if i < len(names) {
				for _, c := range cuts[i] {
					cut[i] = c
					each(i + 1)
				}
				return
			}
			crashes++
			keep := map[string]int{}
			for j, name := range names {
				keep[name] = cut[j]
			}
			disk := w.disk.CrashAt(k, func(name string, _ []byte) int { return keep[name] })
			gone := func(rec int) bool { _, ok := disk.files[w.disk.records[rec].File]; return !ok }
			survived := func(rec int) bool {
				if rec < 0 {
					return true
				}
				r := w.disk.records[rec]
				return rec < k && (gone(rec) || int64(len(disk.files[r.File])) >= r.Offset+r.Length)
			}
			compacted := func(rec int) bool { return rec >= 0 && rec < k && gone(rec) }
			n := map[string]int{}
			for _, s := range w.steps {
				if s.done <= k && !survived(s.rec) {
					n[s.kind]++
					lost[s.kind] = max(lost[s.kind], n[s.kind])
				}
			}
			if err := check(disk, survived, compacted); err != nil {
				var at strings.Builder
				for j, name := range names {
					fmt.Fprintf(&at, " %s kept %d of %d unsynced bytes;", name, cut[j], len(st[name].content)-st[name].synced)
				}
				last := "nothing"
				if k > 0 {
					last = w.disk.records[k-1].String()
				}
				t.Fatalf("crash after %d of %d disk operations (the last: %s);%s recovery: %v",
					k, len(w.disk.records), last, at.String(), err)
			}
		}
		each(0)
	}
	return crashes, lost
}

// TestCrashEnumeration: for the outbox and the inbox, under each sync
// policy, every crash point of the workload recovers to the model and
// goes on exactly once.
func TestCrashEnumeration(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch} {
		name := map[SyncPolicy]string{SyncAlways: "SyncAlways", SyncBatch: "SyncBatch"}[policy]
		t.Run("Outbox/"+name, func(t *testing.T) {
			w := outboxWorkload(t, policy)
			crashes, lost := crashEnumeration(t, w, policy, func(disk *simDisk, survived, _ func(int) bool) error {
				return checkOutbox(w, policy, disk, survived)
			})
			t.Logf("%d disk operations, %d crashes; at most %d entries and %d acknowledgement records lost after the call returned",
				len(w.disk.records), crashes, lost["add"], lost["ack"])
			if policy == SyncAlways && len(lost) > 0 {
				t.Errorf("SyncAlways lost records after the call that wrote them returned: %v", lost)
			}
		})
		for _, ids := range []struct {
			kind string
			ids  []string
		}{{"Inbox/", crashIDs}, {"InboxNames/", crashNames}} {
			t.Run(ids.kind+name, func(t *testing.T) {
				w := inboxWorkload(t, policy, ids.ids)
				crashes, lost := crashEnumeration(t, w, policy, func(disk *simDisk, survived, compacted func(int) bool) error {
					return checkInbox(w, policy, disk, survived, compacted)
				})
				t.Logf("%d disk operations, %d crashes; at most %d staged events and %d acknowledgements lost after the call returned",
					len(w.disk.records), crashes, lost["stage"], lost["ack"])
				if policy == SyncAlways && len(lost) > 0 {
					t.Errorf("SyncAlways lost records after the call that wrote them returned: %v", lost)
				}
			})
		}
	}
}
