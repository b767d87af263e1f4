// The conformance suite sits outside the package so that it can hold
// both implementations of Log (durable imports store), and dot-imports
// it so that the cases read as they did inside.
package store_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"govents/internal/durable"
	. "govents/internal/store"
)

// logFactory builds a fresh Log for the shared conformance tests.
type logFactory func(t *testing.T) Log

func factories() map[string]logFactory {
	return map[string]logFactory{
		"MemLog": func(t *testing.T) Log { return NewMemLog() },
		"Outbox": func(t *testing.T) Log {
			dir := t.TempDir()
			// One record per segment: GC can retire any acknowledged prefix.
			o, err := durable.OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"),
				durable.SegmentConfig{SegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
	}
}

func TestLogConformance(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			t.Run("AppendAndPending", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				if err := l.RegisterConsumer("c1"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if err := l.Append(Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}); err != nil {
						t.Fatal(err)
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
					if e.ID != fmt.Sprintf("e%d", i) {
						t.Errorf("pending[%d] = %q; order must be append order", i, e.ID)
					}
				}
			})

			t.Run("AppendIdempotent", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c")
				_ = l.Append(Entry{ID: "x", Payload: []byte("1")})
				_ = l.Append(Entry{ID: "x", Payload: []byte("2")})
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
				_ = l.Append(Entry{ID: "a"})
				_ = l.Append(Entry{ID: "b"})
				if err := l.Ack("c", "a"); err != nil {
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
				_ = l.Append(Entry{ID: "before"})
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
				if err := l.Ack("ghost", "x"); !errors.Is(err, ErrUnknownConsumer) {
					t.Errorf("Ack err = %v", err)
				}
			})

			t.Run("GC", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.RegisterConsumer("c1")
				_ = l.RegisterConsumer("c2")
				_ = l.Append(Entry{ID: "a"})
				_ = l.Append(Entry{ID: "b"})
				_ = l.Ack("c1", "a")
				n, err := l.GC()
				if err != nil {
					t.Fatal(err)
				}
				if n != 0 || l.Len() != 2 {
					t.Fatalf("GC dropped %d and left %d; entry a not acked by c2", n, l.Len())
				}
				// A log retires a at this acknowledgement or at the GC
				// after it: either way it is gone once GC has run.
				_ = l.Ack("c2", "a")
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
				_ = l.Append(Entry{ID: "a"})
				_ = l.Append(Entry{ID: "b"})
				_ = l.Ack("stays", "a")
				_ = l.UnregisterConsumer("leaves")
				// No acknowledgement completed a: only GC can retire it.
				n, err := l.GC()
				if err != nil {
					t.Fatal(err)
				}
				if n != 1 || l.Len() != 1 {
					t.Fatalf("GC dropped %d and left %d, want a dropped and b left", n, l.Len())
				}
			})

			t.Run("GCWithNoConsumersRetains", func(t *testing.T) {
				l := mk(t)
				defer l.Close()
				_ = l.Append(Entry{ID: "a"})
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
							if err := l.Append(Entry{ID: id}); err != nil {
								t.Errorf("append: %v", err)
							}
							if err := l.Ack("c", id); err != nil {
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

	// One script over both, compared: MemLog is the oracle for the
	// tolerances the cases above do not spell out (repeated
	// registration, an acknowledgement of an entry never appended).
	t.Run("OutboxMatchesMemLog", func(t *testing.T) {
		mem, o := factories()["MemLog"](t), factories()["Outbox"](t)
		defer o.Close()
		for _, l := range []Log{o, mem} {
			if err := l.RegisterConsumer("sub-a"); err != nil {
				t.Fatal(err)
			}
			if err := l.RegisterConsumer("sub-a"); err != nil { // idempotent
				t.Fatal(err)
			}
			for i := range 5 {
				e := Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte{byte(i)}}
				if err := l.Append(e); err != nil {
					t.Fatal(err)
				}
				if err := l.Append(e); err != nil { // idempotent
					t.Fatal(err)
				}
			}
			if err := l.Ack("sub-a", "e1"); err != nil {
				t.Fatal(err)
			}
			if err := l.Ack("sub-a", "never-appended"); err != nil { // tolerated
				t.Fatal(err)
			}
			if err := l.Ack("ghost", "e1"); !errors.Is(err, ErrUnknownConsumer) {
				t.Fatalf("Ack unknown consumer: %v", err)
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
			t.Fatalf("pending: outbox %d, memlog %d", len(op), len(mp))
		}
		for i := range op {
			if op[i].ID != mp[i].ID {
				t.Fatalf("pending[%d]: outbox %q, memlog %q", i, op[i].ID, mp[i].ID)
			}
		}
	})
}

// TestMemLogHoldsWhatIsUnacknowledged: the acknowledgement that
// completes an entry retires it, with no GC; a repeated acknowledgement
// of a retired entry leaves nothing behind; and an ID retired and
// appended again is owed once, not twice.
func TestMemLogHoldsWhatIsUnacknowledged(t *testing.T) {
	l := NewMemLog()
	_ = l.RegisterConsumer("c1")
	_ = l.RegisterConsumer("c2")
	const n = 1000
	for i := range n {
		id := fmt.Sprintf("e%d", i)
		_ = l.Append(Entry{ID: id})
		_ = l.Ack("c1", id)
		if i%2 == 1 { // c2 lags one behind, out of order
			_ = l.Ack("c2", id)
			_ = l.Ack("c2", fmt.Sprintf("e%d", i-1))
		}
		if l.Len() > 2 {
			t.Fatalf("log holds %d entries with at most 2 unacknowledged", l.Len())
		}
	}
	if l.Len() != 0 {
		t.Fatalf("log holds %d entries after every acknowledgement", l.Len())
	}
	_ = l.Ack("c1", "e7") // a duplicate acknowledgement, after retirement
	_ = l.Append(Entry{ID: "e7"})
	for _, c := range []string{"c1", "c2"} {
		if pend, _ := l.Pending(c); len(pend) != 1 || pend[0].ID != "e7" {
			t.Fatalf("%s is owed %v after e7 was appended again, want e7 once", c, pend)
		}
	}
}

// TestMemSetStageIsOneStep: eight goroutines stage the same IDs (a first
// send racing its redelivery); each ID is fresh exactly once.
func TestMemSetStageIsOneStep(t *testing.T) {
	s := NewMemSet()
	const ids, stagers = 1000, 8
	var fresh [ids]atomic.Int32
	var wg sync.WaitGroup
	for range stagers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				ok, err := s.Stage(fmt.Sprintf("e%d", i), "pub", nil)
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
		if has, _ := s.Has(fmt.Sprintf("e%d", i)); !has {
			t.Errorf("e%d staged and not held", i)
		}
	}
	if n, _ := s.Len(); n != ids {
		t.Errorf("set holds %d IDs, want %d", n, ids)
	}
}
