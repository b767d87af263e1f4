package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/obvent"
)

// FlatPin is a flat class: no pointer, slice or map anywhere, and no
// string, whose decode would allocate its bytes.
type FlatPin struct {
	obvent.Base
	N int
	A [4]int
}

// flatPinPlus is a subtype of FlatPin by embedding (§2.2); the embedded
// class is exported, or its fields would not travel.
type flatPinPlus struct {
	FlatPin
	X float64
}

// bytesPin is a class with a reference kind.
type bytesPin struct {
	obvent.Base
	N int
	B []byte
}

// numbered is an abstract type both classes conform to.
type numbered interface {
	obvent.Obvent
	Num() int
}

func (e FlatPin) Num() int  { return e.N }
func (e bytesPin) Num() int { return e.N }

func newFlatPin(n int) FlatPin {
	return FlatPin{N: n, A: [4]int{n, n + 1, n + 2, n + 3}}
}

func newBytesPin(n int) bytesPin {
	b := make([]byte, 16)
	for i := range b {
		b[i] = byte(n + i)
	}
	return bytesPin{N: n, B: b}
}

// TestTypedDeliveryAllocs pins what a delivery costs the heap after
// warm-up, from Engine.Publish of an event already boxed to the handler,
// over the loopback: nothing for a flat class, with 1 and with 50 typed
// subscriptions, and for a subscriber to a struct its class embeds
// (§2.2); the slice alone, per subscription, for a class with a []byte.
// A delivery's value is queued as the handler takes it, not boxed.
func TestTypedDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name  string
		event obvent.Obvent
		subs  int
		want  float64
		sub   func(e *Engine, got *atomic.Int64) (*Subscription, error)
	}{
		{"flat/1", newFlatPin(1), 1, 0, subscribeCounting[FlatPin]},
		{"flat/50", newFlatPin(1), 50, 0, subscribeCounting[FlatPin]},
		{"bytes/1", newBytesPin(1), 1, 1, subscribeCounting[bytesPin]},
		{"bytes/50", newBytesPin(1), 50, 50, subscribeCounting[bytesPin]},
		{"supertype/1", flatPinPlus{newFlatPin(1), 0.5}, 1, 0, subscribeCounting[FlatPin]},
		{"supertype/50", flatPinPlus{newFlatPin(1), 0.5}, 50, 0, subscribeCounting[FlatPin]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newLocalEngine(t)
			e.Registry().MustRegister(FlatPin{})
			e.Registry().MustRegister(tc.event)
			var got atomic.Int64
			for range tc.subs {
				s, err := tc.sub(e, &got)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Activate(); err != nil {
					t.Fatal(err)
				}
			}
			publish := func() {
				want := got.Load() + int64(tc.subs)
				if err := e.Publish(tc.event); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(10 * time.Second); got.Load() < want; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d deliveries handled", got.Load(), want)
					}
				}
			}
			for range 100 {
				publish()
			}
			// The tolerance is for the pools a garbage collection empties
			// (decode scratch, envelopes, chunks), each of which refills
			// with one allocation.
			n := allocs.PerRun(1000, publish)
			t.Logf("%.3f allocations per event", n)
			if n > tc.want+0.01 {
				t.Errorf("a delivery to %d subscriptions allocates %.2f times, want %v", tc.subs, n, tc.want)
			}
		})
	}
}

func subscribeCounting[T obvent.Obvent](e *Engine, got *atomic.Int64) (*Subscription, error) {
	return Subscribe(e, nil, func(T) { got.Add(1) })
}

// TestUniquenessUnderSlotReuse is obvent local uniqueness (§2.1.2) with
// queue slots and decode scratch reused across deliveries: for a flat
// class and a class with a []byte, two typed subscriptions, an
// interface-typed one and a SubscribeDynamic one, each running four
// handlers at once, see every event as published, although every
// handler but one writes to what it was given, slice bytes included; and
// the values the other typed handler keeps are unchanged after 10³
// further deliveries.
func TestUniquenessUnderSlotReuse(t *testing.T) {
	const events = 1001
	e := NewEngine("test-node", NewLocal(), WithDispatchLanes(4))
	t.Cleanup(func() { _ = e.Close() })
	e.Registry().MustRegister(FlatPin{})
	e.Registry().MustRegister(bytesPin{})

	var (
		mu       sync.Mutex
		wrong    []string
		handled  atomic.Int64
		keptFlat []FlatPin
		keptB    []bytesPin
	)
	check := func(who string, o numbered) {
		var pristine bool
		switch v := o.(type) {
		case FlatPin:
			pristine = v == newFlatPin(v.N)
		case bytesPin:
			pristine = bytes.Equal(v.B, newBytesPin(v.N).B)
		}
		if !pristine {
			mu.Lock()
			wrong = append(wrong, fmt.Sprintf("%s saw %+v", who, o))
			mu.Unlock()
		}
		handled.Add(1)
	}
	subs := []func() (*Subscription, error){
		func() (*Subscription, error) {
			return Subscribe(e, nil, func(v FlatPin) {
				check("typed flat writer", v)
				v.A[0] = -1
			})
		},
		func() (*Subscription, error) {
			return Subscribe(e, nil, func(v FlatPin) {
				check("typed flat keeper", v)
				mu.Lock()
				keptFlat = append(keptFlat, v)
				mu.Unlock()
			})
		},
		func() (*Subscription, error) {
			return Subscribe(e, nil, func(v bytesPin) {
				check("typed bytes writer", v)
				clear(v.B)
			})
		},
		func() (*Subscription, error) {
			return Subscribe(e, nil, func(v bytesPin) {
				check("typed bytes keeper", v)
				mu.Lock()
				keptB = append(keptB, v)
				mu.Unlock()
			})
		},
		func() (*Subscription, error) {
			return Subscribe(e, nil, func(v numbered) {
				check("interface-typed writer", v)
				if b, ok := v.(bytesPin); ok {
					clear(b.B)
				}
			})
		},
		func() (*Subscription, error) {
			return e.SubscribeDynamic(reflect.TypeFor[numbered](), nil, nil, func(o obvent.Obvent) {
				check("dynamic writer", o.(numbered))
				if b, ok := o.(bytesPin); ok {
					clear(b.B)
				}
			})
		},
	}
	for _, subscribe := range subs {
		s, err := subscribe()
		if err != nil {
			t.Fatal(err)
		}
		s.SetMultiThreading(4)
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	for n := range events {
		if err := Publish(e, newFlatPin(n)); err != nil {
			t.Fatal(err)
		}
		if err := Publish(e, newBytesPin(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Each class reaches its two typed subscriptions and both abstract
	// ones.
	waitFor(t, 30*time.Second, "every delivery handled", func() bool { return handled.Load() == 8*events })
	mu.Lock()
	defer mu.Unlock()
	for _, w := range wrong {
		t.Error(w)
	}
	for _, v := range keptFlat {
		if v != newFlatPin(v.N) {
			t.Errorf("a kept flat value changed: %+v", v)
		}
	}
	for _, v := range keptB {
		if !bytes.Equal(v.B, newBytesPin(v.N).B) {
			t.Errorf("a kept []byte value changed: %+v", v)
		}
	}
	if len(keptFlat) != events || len(keptB) != events {
		t.Errorf("kept %d flat and %d []byte values, want %d each", len(keptFlat), len(keptB), events)
	}
}
