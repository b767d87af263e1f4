package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/obvent"
)

// The paper's Figure 1/2 type hierarchy.

type StockObvent struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

func (s StockObvent) GetCompany() string { return s.Company }
func (s StockObvent) GetPrice() float64  { return s.Price }
func (s StockObvent) GetAmount() int     { return s.Amount }

type StockQuote struct {
	StockObvent
}

type StockRequest struct {
	StockObvent
}

type SpotPrice struct {
	StockRequest
}

type MarketPrice struct {
	StockRequest
}

// Priced is an abstract obvent type (explicit declaration).
type Priced interface {
	obvent.Obvent
	GetPrice() float64
}

type prioAlert struct {
	obvent.Base
	obvent.PriorityBase
	Msg string
}

type timelyTick struct {
	obvent.Base
	obvent.TimelyBase
	N int
}

func newLocalEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine("test-node", NewLocal())
	t.Cleanup(func() { _ = e.Close() })
	reg := e.Registry()
	reg.MustRegister(StockObvent{})
	reg.MustRegister(StockQuote{})
	reg.MustRegister(StockRequest{})
	reg.MustRegister(SpotPrice{})
	reg.MustRegister(MarketPrice{})
	reg.MustRegister(prioAlert{})
	reg.MustRegister(timelyTick{})
	return e
}

// collectorOf subscribes with a handler accumulating received values.
type collector[T obvent.Obvent] struct {
	mu   sync.Mutex
	got  []T
	subn *Subscription
}

func subscribeCollector[T obvent.Obvent](t *testing.T, e *Engine, f *filter.Expr) *collector[T] {
	t.Helper()
	c := &collector[T]{}
	sub, err := Subscribe(e, f, func(v T) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.got = append(c.got, v)
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	c.subn = sub
	return c
}

func (c *collector[T]) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector[T]) all() []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]T, len(c.got))
	copy(out, c.got)
	return out
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestPublishSubscribeRoundTrip(t *testing.T) {
	e := newLocalEngine(t)
	c := subscribeCollector[StockQuote](t, e, nil)
	q := StockQuote{StockObvent{Company: "Telco Mobiles", Price: 80, Amount: 10}}
	if err := Publish(e, q); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "delivery", func() bool { return c.count() == 1 })
	if got := c.all()[0]; got.Company != "Telco Mobiles" || got.Price != 80 {
		t.Errorf("got %+v", got)
	}
}

func TestFig1SubtypeDelivery(t *testing.T) {
	// Paper Figure 1: p3 subscribing to StockObvent receives all
	// instances of StockQuote and StockRequest, and hence all objects
	// of type SpotPrice and MarketPrice.
	e := newLocalEngine(t)
	base := subscribeCollector[StockObvent](t, e, nil)
	requests := subscribeCollector[StockRequest](t, e, nil)
	quotes := subscribeCollector[StockQuote](t, e, nil)

	_ = Publish(e, StockQuote{StockObvent{Company: "T"}})
	_ = Publish(e, SpotPrice{StockRequest{StockObvent{Company: "S"}}})
	_ = Publish(e, MarketPrice{StockRequest{StockObvent{Company: "M"}}})
	_ = Publish(e, StockObvent{Company: "B"})

	waitFor(t, time.Second, "base receives everything", func() bool { return base.count() == 4 })
	waitFor(t, time.Second, "requests receive spot+market", func() bool { return requests.count() == 2 })
	waitFor(t, time.Second, "quotes receive quote only", func() bool { return quotes.count() == 1 })

	// No cross-delivery: publishing a base instance reaches neither
	// sibling subscription (checked by the exact counts above).
}

func TestSubscribeToAbstractType(t *testing.T) {
	e := newLocalEngine(t)
	c := &collector[Priced]{}
	sub, err := Subscribe(e, nil, func(p Priced) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.got = append(c.got, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	_ = Publish(e, StockQuote{StockObvent{Price: 42}})
	waitFor(t, time.Second, "interface delivery", func() bool { return c.count() == 1 })
	if c.all()[0].GetPrice() != 42 {
		t.Error("interface method dispatch failed")
	}
}

func TestPaperSubscriptionExample(t *testing.T) {
	// §2.3.3: price < 100 && company contains "Telco".
	e := newLocalEngine(t)
	f := filter.And(
		filter.Path("GetPrice").Lt(filter.Float(100)),
		filter.Path("GetCompany").Contains(filter.Str("Telco")),
	)
	c := subscribeCollector[StockQuote](t, e, f)

	_ = Publish(e, StockQuote{StockObvent{Company: "Telco Mobiles", Price: 80, Amount: 10}}) // match
	_ = Publish(e, StockQuote{StockObvent{Company: "Telco Mobiles", Price: 150}})            // too expensive
	_ = Publish(e, StockQuote{StockObvent{Company: "Acme", Price: 10}})                      // wrong company

	waitFor(t, time.Second, "filtered delivery", func() bool { return c.count() == 1 })
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("delivered %d, want 1", c.count())
	}
	if got := c.all()[0]; got.Price != 80 {
		t.Errorf("got %+v", got)
	}
}

func TestLocalFilterClosure(t *testing.T) {
	// An opaque Go closure with a captured variable — the paper's
	// non-migratable filter, applied locally (§3.3.4).
	e := newLocalEngine(t)
	threshold := 100.0
	c := &collector[StockQuote]{}
	sub, err := SubscribeLocal(e, func(q StockQuote) bool {
		return q.Price < threshold
	}, func(q StockQuote) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.got = append(c.got, q)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sub.Activate()
	_ = Publish(e, StockQuote{StockObvent{Price: 80}})
	_ = Publish(e, StockQuote{StockObvent{Price: 120}})
	waitFor(t, time.Second, "local filter", func() bool { return c.count() == 1 })
}

func TestSubscribeFilteredCombines(t *testing.T) {
	e := newLocalEngine(t)
	c := &collector[StockQuote]{}
	sub, err := SubscribeFiltered(e,
		filter.Path("GetPrice").Lt(filter.Float(100)),
		func(q StockQuote) bool { return q.Amount > 5 },
		func(q StockQuote) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.got = append(c.got, q)
		})
	if err != nil {
		t.Fatal(err)
	}
	_ = sub.Activate()
	_ = Publish(e, StockQuote{StockObvent{Price: 80, Amount: 10}})  // passes both
	_ = Publish(e, StockQuote{StockObvent{Price: 80, Amount: 1}})   // fails local
	_ = Publish(e, StockQuote{StockObvent{Price: 200, Amount: 10}}) // fails remote
	waitFor(t, time.Second, "combined filters", func() bool { return c.count() == 1 })
	time.Sleep(10 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("count = %d", c.count())
	}
}

func TestObventLocalUniqueness(t *testing.T) {
	// §2.1.2: two notifiables in the same address space receive
	// references to two distinct clones.
	type mutableObvent struct {
		obvent.Base
		Tags []string
	}
	e := NewEngine("uniq", NewLocal())
	defer e.Close()
	e.Registry().MustRegister(mutableObvent{})

	seen := make(chan []string, 2)
	for i := 0; i < 2; i++ {
		sub, err := Subscribe(e, nil, func(m mutableObvent) {
			m.Tags[0] = fmt.Sprintf("mutated-by-%p", &m) // mutate our copy
			seen <- m.Tags
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	orig := mutableObvent{Tags: []string{"original"}}
	if err := Publish(e, orig); err != nil {
		t.Fatal(err)
	}
	a := <-seen
	b := <-seen
	if &a[0] == &b[0] {
		t.Error("subscribers shared a clone")
	}
	// The publisher's object is untouched.
	if orig.Tags[0] != "original" {
		t.Error("published obvent mutated by a subscriber")
	}
}

func TestPublishSameObventTwiceCreatesNewClones(t *testing.T) {
	// §2.1.2: "if the same obvent is published twice, two distinct
	// copies will be created again for every subscriber."
	e := newLocalEngine(t)
	c := subscribeCollector[StockQuote](t, e, nil)
	q := StockQuote{StockObvent{Company: "X"}}
	_ = Publish(e, q)
	_ = Publish(e, q)
	waitFor(t, time.Second, "two deliveries", func() bool { return c.count() == 2 })
}

func TestActivateDeactivateLifecycle(t *testing.T) {
	e := newLocalEngine(t)
	var n atomic.Int32
	sub, err := Subscribe(e, nil, func(StockQuote) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	// Not yet activated: no delivery.
	_ = Publish(e, StockQuote{})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != 0 {
		t.Fatal("delivery before activation")
	}

	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	// Double activation fails (paper §3.4.1).
	if err := sub.Activate(); !errors.Is(err, ErrCannotSubscribe) {
		t.Errorf("double activate err = %v", err)
	}

	_ = Publish(e, StockQuote{})
	waitFor(t, time.Second, "active delivery", func() bool { return n.Load() == 1 })

	if err := sub.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Deactivate(); !errors.Is(err, ErrCannotUnsubscribe) {
		t.Errorf("double deactivate err = %v", err)
	}

	_ = Publish(e, StockQuote{})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatal("delivery while deactivated")
	}

	// Interleaved re-activation works an unlimited number of times
	// (§3.4.2).
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	_ = Publish(e, StockQuote{})
	waitFor(t, time.Second, "reactivated delivery", func() bool { return n.Load() == 2 })
}

func TestDeactivateFromInsideHandler(t *testing.T) {
	// §3.4.2: "subscriptions can be cancelled also from inside a
	// subscription, i.e., its associated handler."
	e := newLocalEngine(t)
	var n atomic.Int32
	var sub *Subscription
	var err error
	done := make(chan struct{})
	sub, err = Subscribe(e, nil, func(StockQuote) {
		if n.Add(1) == 1 {
			if derr := sub.Deactivate(); derr != nil {
				t.Errorf("deactivate from handler: %v", derr)
			}
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sub.Activate()
	_ = Publish(e, StockQuote{})
	<-done
	_ = Publish(e, StockQuote{})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("delivered %d after self-deactivation", n.Load())
	}
}

func TestSingleThreadingPolicy(t *testing.T) {
	e := newLocalEngine(t)
	var concurrent, maxConcurrent atomic.Int32
	var n atomic.Int32
	sub, err := Subscribe(e, nil, func(StockQuote) {
		cur := concurrent.Add(1)
		for {
			m := maxConcurrent.Load()
			if cur <= m || maxConcurrent.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		concurrent.Add(-1)
		n.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.SetSingleThreading()
	_ = sub.Activate()
	for i := 0; i < 20; i++ {
		_ = Publish(e, StockQuote{})
	}
	waitFor(t, 5*time.Second, "all handled", func() bool { return n.Load() == 20 })
	if maxConcurrent.Load() != 1 {
		t.Errorf("max concurrency = %d, want 1", maxConcurrent.Load())
	}
}

func TestBoundedMultiThreadingPolicy(t *testing.T) {
	e := newLocalEngine(t)
	var concurrent, maxConcurrent atomic.Int32
	var n atomic.Int32
	block := make(chan struct{})
	sub, err := Subscribe(e, nil, func(StockQuote) {
		cur := concurrent.Add(1)
		for {
			m := maxConcurrent.Load()
			if cur <= m || maxConcurrent.CompareAndSwap(m, cur) {
				break
			}
		}
		<-block
		concurrent.Add(-1)
		n.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.SetMultiThreading(3)
	_ = sub.Activate()
	for i := 0; i < 10; i++ {
		_ = Publish(e, StockQuote{})
	}
	// Let the executor saturate the limit.
	waitFor(t, 5*time.Second, "3 handlers in flight", func() bool { return concurrent.Load() == 3 })
	time.Sleep(10 * time.Millisecond)
	if maxConcurrent.Load() != 3 {
		t.Errorf("max concurrency = %d, want 3", maxConcurrent.Load())
	}
	close(block)
	waitFor(t, 5*time.Second, "all handled", func() bool { return n.Load() == 10 })
}

func TestPriorityOvertakesBacklog(t *testing.T) {
	// Two obvents queued behind a blocked dispatcher: the higher
	// priority one must be dispatched first even though it arrived
	// later.
	e := newLocalEngine(t)

	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	first := make(chan struct{}, 1)
	sub, err := Subscribe(e, nil, func(a prioAlert) {
		select {
		case first <- struct{}{}:
			// First delivery blocks the single dispatcher pipeline
			// while the rest of the backlog accumulates.
			<-release
		default:
		}
		mu.Lock()
		order = append(order, a.Msg)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.SetSingleThreading()
	_ = sub.Activate()

	_ = Publish(e, prioAlert{Msg: "blocker", PriorityBase: obvent.PriorityBase{Prio: 0}})
	waitFor(t, time.Second, "blocker in handler", func() bool { return len(first) == 1 })
	_ = Publish(e, prioAlert{Msg: "low", PriorityBase: obvent.PriorityBase{Prio: 1}})
	_ = Publish(e, prioAlert{Msg: "high", PriorityBase: obvent.PriorityBase{Prio: 9}})
	time.Sleep(20 * time.Millisecond) // both reach the priority inbox
	close(release)

	waitFor(t, 5*time.Second, "all delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if order[1] != "high" || order[2] != "low" {
		t.Errorf("order = %v, want [blocker high low]", order)
	}
}

func TestTimelyExpiredDropped(t *testing.T) {
	e := newLocalEngine(t)
	c := subscribeCollector[timelyTick](t, e, nil)
	// An obvent born long ago with a tiny TTL is dropped at dispatch.
	_ = Publish(e, timelyTick{TimelyBase: obvent.TimelyBase{TTL: time.Millisecond, BirthTime: time.Now().Add(-time.Second)}, N: 1})
	_ = Publish(e, timelyTick{TimelyBase: obvent.TimelyBase{TTL: time.Minute}, N: 2})
	waitFor(t, time.Second, "fresh tick", func() bool { return c.count() == 1 })
	time.Sleep(10 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("count = %d; expired obvent delivered", c.count())
	}
	if c.all()[0].N != 2 {
		t.Error("wrong tick delivered")
	}
}

func TestPublishErrors(t *testing.T) {
	e := newLocalEngine(t)
	if err := e.Publish(nil); !errors.Is(err, ErrCannotPublish) {
		t.Errorf("nil publish err = %v", err)
	}
	_ = e.Close()
	if err := Publish(e, StockQuote{}); !errors.Is(err, ErrCannotPublish) {
		t.Errorf("closed publish err = %v", err)
	}
}

func TestSubscribeErrors(t *testing.T) {
	e := newLocalEngine(t)
	if _, err := Subscribe[StockQuote](e, nil, nil); !errors.Is(err, ErrCannotSubscribe) {
		t.Errorf("nil handler err = %v", err)
	}
	if _, err := Subscribe(e, filter.And(), func(StockQuote) {}); !errors.Is(err, ErrCannotSubscribe) {
		t.Errorf("invalid filter err = %v", err)
	}
}

func TestSubscriptionsHaveUniqueIDs(t *testing.T) {
	e := newLocalEngine(t)
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		sub, err := Subscribe(e, nil, func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if seen[sub.ID()] {
			t.Fatalf("duplicate subscription ID %s", sub.ID())
		}
		seen[sub.ID()] = true
	}
}

func TestHandlerMayPublish(t *testing.T) {
	// §5.3: an obvent handler publishing obvents must not deadlock.
	e := newLocalEngine(t)
	got := make(chan string, 2)
	sub1, err := Subscribe(e, filter.Path("GetCompany").Eq(filter.Str("first")), func(q StockQuote) {
		got <- "first"
		_ = Publish(e, StockQuote{StockObvent{Company: "second"}})
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sub1.Activate()
	sub2, err := Subscribe(e, filter.Path("GetCompany").Eq(filter.Str("second")), func(q StockQuote) {
		got <- "second"
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sub2.Activate()

	_ = Publish(e, StockQuote{StockObvent{Company: "first"}})
	for _, want := range []string{"first", "second"} {
		select {
		case g := <-got:
			if g != want {
				t.Fatalf("got %q, want %q", g, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timeout: handler publish deadlocked?")
		}
	}
}

func TestEngineCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	e := NewEngine("x", NewLocal())
	e.Registry().MustRegister(StockQuote{})
	var n atomic.Int32
	sub, _ := Subscribe(e, nil, func(StockQuote) { n.Add(1) })
	_ = sub.Activate()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableActivation(t *testing.T) {
	e := newLocalEngine(t)
	sub, err := Subscribe(e, nil, func(StockQuote) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.ActivateDurable(""); !errors.Is(err, ErrCannotSubscribe) {
		t.Error("empty durable ID must fail")
	}
	if err := sub.ActivateDurable("broker-7"); err != nil {
		t.Fatal(err)
	}
	if got := sub.info().DurableID; got != "broker-7" {
		t.Errorf("DurableID = %q", got)
	}
}

// TestLocalReleasesDeliveredEnvelopes: once the sink has an envelope,
// the local domain keeps nothing of it reachable, so an idle domain does
// not pin its last burst.
func TestLocalReleasesDeliveredEnvelopes(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	delivered := make(chan struct{}, 1)
	l.SetSink(func(*codec.Envelope) { delivered <- struct{}{} })
	collected := make(chan struct{})
	env := &codec.Envelope{ID: codec.NewID(), Payload: make([]byte, 1<<10)}
	runtime.SetFinalizer(env, func(*codec.Envelope) { close(collected) })
	if err := l.PublishEnvelope(env); err != nil {
		t.Fatal(err)
	}
	env = nil
	<-delivered
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("delivered envelope still reachable after GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
