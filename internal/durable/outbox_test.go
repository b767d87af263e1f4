package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// The cases every Outbox passes, whatever its file seam: TestOutboxConformance
// runs them over discardFS, as a domain without a durability directory
// has it, and over the disk.

// factories builds a fresh Outbox over each seam.
func factories() map[string]func(t *testing.T) *Outbox {
	return map[string]func(t *testing.T) *Outbox{
		"Memory": func(t *testing.T) *Outbox { return NewMemOutbox() },
		"Disk": func(t *testing.T) *Outbox {
			dir := t.TempDir()
			// One record per segment: GC can drop any acknowledged prefix.
			o, err := OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"),
				SegmentConfig{SegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
	}
}

// add appends an entry and returns its offset.
func add(t *testing.T, l *Outbox, e Entry) uint64 {
	t.Helper()
	off, err := l.Add(e)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// one is the run holding off alone.
func one(off uint64) []Run { return []Run{{Lo: off, Hi: off}} }

func TestOutboxConformance(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			t.Run("AppendAndPending", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				if err := l.RegisterConsumer("c1"); err != nil {
					t.Fatal(err)
				}
				var offs [3]uint64
				for i := range offs {
					offs[i] = add(t, l, Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}})
					if offs[i] == 0 || i > 0 && offs[i] <= offs[i-1] {
						t.Fatalf("offsets %v; they start above 0 and ascend", offs[:i+1])
					}
				}
				pend, err := l.Pending("c1")
				if err != nil {
					t.Fatal(err)
				}
				if len(pend) != 3 {
					t.Fatalf("pending = %d, want 3", len(pend))
				}
				for i, e := range pend {
					if e.ID != fmt.Sprintf("e%d", i) || e.Offset != offs[i] {
						t.Errorf("pending[%d] = %q at %d; order must be append order, offsets those Add returned (%d)", i, e.ID, e.Offset, offs[i])
					}
				}
			})

			t.Run("AppendIdempotent", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				first := add(t, l, Entry{ID: "x", Payload: []byte("1")})
				if again := add(t, l, Entry{ID: "x", Payload: []byte("2")}); again != first {
					t.Errorf("the same ID at offsets %d and %d", first, again)
				}
				pend, _ := l.Pending("c")
				if len(pend) != 1 {
					t.Fatalf("pending = %d, want 1", len(pend))
				}
				if string(pend[0].Payload) != "1" {
					t.Error("duplicate append must not overwrite")
				}
			})

			t.Run("AckRemovesFromPending", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				a := add(t, l, Entry{ID: "a"})
				add(t, l, Entry{ID: "b"})
				if err := l.AckRuns("c", one(a)); err != nil {
					t.Fatal(err)
				}
				pend, _ := l.Pending("c")
				if len(pend) != 1 || pend[0].ID != "b" {
					t.Fatalf("pending = %v", pend)
				}
			})

			t.Run("EntriesOwedToLateConsumers", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				add(t, l, Entry{ID: "before"})
				_ = l.RegisterConsumer("late")
				pend, err := l.Pending("late")
				if err != nil {
					t.Fatal(err)
				}
				if len(pend) != 1 {
					t.Fatal("entries appended before registration must be owed")
				}
			})

			t.Run("UnknownConsumer", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				if _, err := l.Pending("ghost"); !errors.Is(err, ErrUnknownConsumer) {
					t.Errorf("Pending err = %v", err)
				}
				if err := l.AckRuns("ghost", one(1)); !errors.Is(err, ErrUnknownConsumer) {
					t.Errorf("AckRuns err = %v", err)
				}
			})

			t.Run("GC", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c1")
				_ = l.RegisterConsumer("c2")
				a := add(t, l, Entry{ID: "a"})
				add(t, l, Entry{ID: "b"})
				_ = l.AckRuns("c1", one(a))
				n, err := l.GC()
				if err != nil {
					t.Fatal(err)
				}
				if n != 0 || l.Len() != 2 {
					t.Fatalf("GC dropped %d and left %d; entry a not acked by c2", n, l.Len())
				}
				// The acknowledgement that completes a retires it; GC
				// changes nothing in memory.
				_ = l.AckRuns("c2", one(a))
				if l.Len() != 1 {
					t.Fatalf("log holds %d entries after a was acknowledged by both, want b alone", l.Len())
				}
				if _, err = l.GC(); err != nil {
					t.Fatal(err)
				}
				if l.Len() != 1 {
					t.Fatalf("log holds %d entries after GC, want b alone", l.Len())
				}
				pend, _ := l.Pending("c1")
				if len(pend) != 1 || pend[0].ID != "b" {
					t.Fatalf("after GC pending = %v", pend)
				}
			})

			t.Run("GCAfterUnregister", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("stays")
				_ = l.RegisterConsumer("leaves")
				a := add(t, l, Entry{ID: "a"})
				add(t, l, Entry{ID: "b"})
				_ = l.AckRuns("stays", one(a))
				_ = l.UnregisterConsumer("leaves")
				// No acknowledgement completed a: only GC can retire it.
				// What GC drops from the data log is whole segments: a's
				// on disk, none of the one segment in memory.
				n, err := l.GC()
				if err != nil {
					t.Fatal(err)
				}
				if want := map[string]int{"Memory": 0, "Disk": 1}[name]; n != want || l.Len() != 1 {
					t.Fatalf("GC dropped %d records and left %d entries, want %d dropped and b left", n, l.Len(), want)
				}
			})

			t.Run("GCWithNoConsumersRetains", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				add(t, l, Entry{ID: "a"})
				n, err := l.GC()
				if err != nil {
					t.Fatal(err)
				}
				if n != 0 {
					t.Error("GC must not drop entries when no consumer is registered")
				}
			})

			t.Run("UnregisterConsumer", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				_ = l.UnregisterConsumer("c")
				if _, err := l.Pending("c"); !errors.Is(err, ErrUnknownConsumer) {
					t.Error("unregistered consumer should be unknown")
				}
			})

			t.Run("Consumers", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("b")
				_ = l.RegisterConsumer("a")
				got, err := l.Consumers()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 2 || got[0] != "a" || got[1] != "b" {
					t.Fatalf("Consumers = %v", got)
				}
			})

			t.Run("AckRuns", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				_ = l.RegisterConsumer("other") // acknowledges nothing: every entry stays held
				var offs [10]uint64
				for i := range offs {
					offs[i] = add(t, l, Entry{ID: fmt.Sprintf("e%d", i)})
				}
				owed := func() (ids string) {
					t.Helper()
					pend, err := l.Pending("c")
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range pend {
						ids += e.ID[1:]
					}
					return ids
				}
				last := offs[9]
				for _, step := range []struct {
					what string
					runs []Run
					want string
				}{
					{"no run", nil, "0123456789"},
					{"two runs in one call", []Run{{offs[1], offs[2]}, {offs[5], offs[5]}}, "0346789"},
					{"the same again", []Run{{offs[1], offs[2]}, {offs[5], offs[5]}}, "0346789"},
					{"overlapping what is acknowledged and each other", []Run{{offs[2], offs[4]}, {offs[3], offs[6]}}, "0789"},
					{"descending in the call", []Run{{offs[8], offs[8]}, {offs[0], offs[0]}}, "79"},
					{"wholly beyond the last offset", []Run{{last + 1, last + 1000}, {^uint64(0), ^uint64(0)}}, "79"},
					{"below the first offset and inverted", []Run{{0, 0}, {offs[9], offs[7]}}, "79"},
					{"from inside to far beyond the last offset", []Run{{offs[9], ^uint64(0)}}, "7"},
					{"everything there could ever be", []Run{{0, ^uint64(0)}}, ""},
				} {
					if err := l.AckRuns("c", step.runs); err != nil {
						t.Fatalf("%s: %v", step.what, err)
					}
					if got := owed(); got != step.want {
						t.Fatalf("after %s: owed %q, want %q", step.what, got, step.want)
					}
				}
				// What was acknowledged beyond the last offset was ignored,
				// not remembered: the next entry is owed.
				add(t, l, Entry{ID: "e10"})
				if got := owed(); got != "10" {
					t.Fatalf("an entry added after a run that reached past the end: owed %q, want it", got)
				}
			})

			t.Run("ConcurrentAppendAck", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 25; i++ {
							id := fmt.Sprintf("g%d-%d", g, i)
							off, err := l.Add(Entry{ID: id})
							if err != nil {
								t.Errorf("add: %v", err)
							}
							if err := l.AckRuns("c", one(off)); err != nil {
								t.Errorf("ack: %v", err)
							}
						}
					}(g)
				}
				wg.Wait()
				pend, _ := l.Pending("c")
				if len(pend) != 0 {
					t.Fatalf("pending = %d after all acked", len(pend))
				}
			})
		})
	}

	// One script over both seams, compared: the tolerances the cases
	// above do not spell out (repeated registration, an acknowledgement
	// of an offset never assigned) and the offsets themselves do not
	// depend on where the bytes go.
	t.Run("MemoryMatchesDisk", func(t *testing.T) {
		mem, o := factories()["Memory"](t), factories()["Disk"](t)
		defer o.Close()
		defer mem.Close()
		for _, l := range []*Outbox{o, mem} {
			if err := l.RegisterConsumer("sub-a"); err != nil {
				t.Fatal(err)
			}
			if err := l.RegisterConsumer("sub-a"); err != nil { // idempotent
				t.Fatal(err)
			}
			var offs [5]uint64
			for i := range offs {
				e := Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}
				offs[i] = add(t, l, e)
				if again := add(t, l, e); again != offs[i] { // idempotent
					t.Fatalf("e%d at offsets %d and %d", i, offs[i], again)
				}
			}
			if err := l.AckRuns("sub-a", one(offs[1])); err != nil {
				t.Fatal(err)
			}
			if err := l.AckRuns("sub-a", []Run{{offs[3], offs[4] + 7}}); err != nil { // beyond the end: tolerated
				t.Fatal(err)
			}
			if err := l.AckRuns("ghost", one(offs[1])); !errors.Is(err, ErrUnknownConsumer) {
				t.Fatalf("AckRuns unknown consumer: %v", err)
			}
			if _, err := l.Pending("ghost"); !errors.Is(err, ErrUnknownConsumer) {
				t.Fatalf("Pending unknown consumer: %v", err)
			}
		}
		op, err := o.Pending("sub-a")
		if err != nil {
			t.Fatal(err)
		}
		mp, err := mem.Pending("sub-a")
		if err != nil {
			t.Fatal(err)
		}
		if len(op) != len(mp) {
			t.Fatalf("pending: on disk %d, in memory %d", len(op), len(mp))
		}
		for i := range op {
			if op[i].ID != mp[i].ID || op[i].Offset != mp[i].Offset {
				t.Fatalf("pending[%d]: on disk %q at %d, in memory %q at %d", i, op[i].ID, op[i].Offset, mp[i].ID, mp[i].Offset)
			}
		}
	})
}

// TestOutboxHoldsWhatIsUnacknowledged: the acknowledgement that
// completes an entry retires it from memory, with no GC, on either seam
// (on disk the outbox used to hold every entry until GC, which only a
// Retention ticker calls); a repeated acknowledgement of a retired entry
// leaves nothing behind; an ID retired and appended again is owed once,
// not twice; and a reopen holds what the outbox held before it.
func TestOutboxHoldsWhatIsUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	open := map[string]func() *Outbox{
		"Memory": NewMemOutbox,
		"Disk": func() *Outbox {
			o, err := OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"), SegmentConfig{Sync: SyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			l := open()
			_ = l.RegisterConsumer("c1")
			_ = l.RegisterConsumer("c2")
			const n = 10_000
			offs := make([]uint64, n)
			for i := range n {
				offs[i] = add(t, l, Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte("p")})
				_ = l.AckRuns("c1", one(offs[i]))
				if i%2 == 1 { // c2 lags one behind, out of order
					_ = l.AckRuns("c2", one(offs[i]))
					_ = l.AckRuns("c2", one(offs[i-1]))
				}
				if l.Len() > 2 {
					t.Fatalf("outbox holds %d entries with at most 2 unacknowledged", l.Len())
				}
			}
			if l.Len() != 0 {
				t.Fatalf("outbox holds %d entries after every acknowledgement", l.Len())
			}
			_ = l.AckRuns("c1", one(offs[7])) // a duplicate acknowledgement, after retirement
			if again := add(t, l, Entry{ID: "e7"}); again <= offs[n-1] {
				t.Fatalf("e7 appended again at offset %d, which the outbox has assigned before", again)
			}
			owedOnce := func(l *Outbox) {
				t.Helper()
				for _, c := range []string{"c1", "c2"} {
					if pend, _ := l.Pending(c); len(pend) != 1 || pend[0].ID != "e7" {
						t.Fatalf("%s is owed %v after e7 was appended again, want e7 once", c, pend)
					}
				}
				if l.Len() != 1 {
					t.Fatalf("outbox holds %d entries, want e7 alone", l.Len())
				}
			}
			owedOnce(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if name == "Disk" {
				l = open()
				defer l.Close()
				owedOnce(l)
			}
		})
	}
}

// TestInboxStageIsOneStep: eight goroutines stage the same IDs (a first
// send racing its redelivery) into an in-memory inbox; each ID is fresh
// exactly once, and staged again it is not fresh.
func TestInboxStageIsOneStep(t *testing.T) {
	ib := NewMemInbox()
	defer ib.Close()
	const ids, stagers = 1000, 8
	var fresh [ids]atomic.Int32
	var wg sync.WaitGroup
	for range stagers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				ok, err := ib.Stage(fmt.Sprintf("e%d", i), "pub", nil)
				if err != nil {
					t.Error(err)
				}
				if ok {
					fresh[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range ids {
		if n := fresh[i].Load(); n != 1 {
			t.Errorf("e%d was fresh %d times, want once", i, n)
		}
		if again, _ := ib.Stage(fmt.Sprintf("e%d", i), "pub", nil); again {
			t.Errorf("e%d staged and not held", i)
		}
	}
	if st := ib.Stats(); st.Staged != ids {
		t.Errorf("inbox staged %d IDs, want %d", st.Staged, ids)
	}
}
