package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/filter"
	"govents/internal/obvent"
)

// The thread contract of §3.3.5, checked on a bare executor: unordered
// deliveries run concurrently up to the limit and never wait behind a
// running handler they may overtake; ordered deliveries run alone and in
// submit order; a limit change re-examines the queue at once.

// gate is a handler whose every invocation parks until released, with
// the bookkeeping the contract tests assert on.
type gate struct {
	started atomic.Int64 // handlers entered so far
	inside  atomic.Int64 // handlers inside now
	release chan struct{}
	once    sync.Once
}

// newGate's handlers are all let go when the test ends, so a failed
// assertion leaves nothing parked.
func newGate(t *testing.T) *gate {
	g := &gate{release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

// open lets every parked and future handler return.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) run(submission) bool {
	g.started.Add(1)
	g.inside.Add(1)
	<-g.release
	g.inside.Add(-1)
	return true
}

// letOne lets exactly one parked handler return.
func (g *gate) letOne() { g.release <- struct{}{} }

func submitN(t *testing.T, x *executor, n int, ordered bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if st := x.submit(&submission{o: freeTick{N: i}, ordered: ordered, id: fmt.Sprint(i), class: "freeTick"}); st != submitOK {
			t.Fatalf("submit %d = %v, want submitOK", i, st)
		}
	}
}

// stays asserts that a count does not move: the negative half of "starts
// only after", which no event can signal.
func stays(t *testing.T, what string, v *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := v.Load(); got != want {
			t.Fatalf("%s = %d, want it to stay at %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorUnlimitedNeverWaitsBehindRunningHandler: under the default
// policy every one of 200 deliveries starts while all earlier ones are
// still inside the handler.
func TestExecutorUnlimitedNeverWaitsBehindRunningHandler(t *testing.T) {
	const n = 200
	g := newGate(t)
	x := newExecutor(g.run, nil, 0, 0, &overloadCounters{})
	submitN(t, x, n, false)
	waitFor(t, 10*time.Second, "all handlers inside at once", func() bool { return g.inside.Load() == n })
	g.open()
	x.close()
	if got := g.started.Load(); got != n {
		t.Errorf("handler ran %d times, want %d", got, n)
	}
}

// TestExecutorOrderedRunsAloneInOrder: an ordered delivery queued behind
// in-flight unordered handlers starts only after they have all returned,
// nothing starts beside it, and ordered deliveries run in submit order.
func TestExecutorOrderedRunsAloneInOrder(t *testing.T) {
	const unordered, ordered = 5, 3
	g := newGate(t)
	var mu sync.Mutex
	var order []string
	x := newExecutor(func(s submission) bool {
		if s.ordered {
			if in := g.inside.Load(); in != 0 {
				t.Errorf("ordered %s started beside %d running handlers", s.id, in)
			}
			mu.Lock()
			order = append(order, s.id)
			mu.Unlock()
		}
		return g.run(s)
	}, nil, 0, 0, &overloadCounters{})

	submitN(t, x, unordered, false)
	waitFor(t, 5*time.Second, "unordered handlers inside", func() bool { return g.inside.Load() == unordered })
	submitN(t, x, ordered, true)
	submitN(t, x, unordered, false) // must not overtake the ordered ones
	for i := 1; i < unordered; i++ {
		g.letOne()
	}
	waitFor(t, 5*time.Second, "all but one unordered returned", func() bool { return g.inside.Load() == 1 })
	stays(t, "started with an unordered handler left", &g.started, unordered)

	g.letOne()
	for i := 1; i <= ordered; i++ {
		want := int64(unordered + i)
		waitFor(t, 5*time.Second, "next ordered delivery inside", func() bool { return g.started.Load() == want })
		stays(t, "started beside an ordered handler", &g.started, want)
		g.letOne()
	}
	waitFor(t, 5*time.Second, "trailing unordered inside", func() bool { return g.inside.Load() == unordered })
	g.open()
	x.close()
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"0", "1", "2"}; !reflect.DeepEqual(order, want) {
		t.Errorf("ordered deliveries ran as %v, want %v", order, want)
	}
}

// TestExecutorLimitChangeReexaminesQueue: SetMultiThreading(n) and
// SetSingleThreading flipped while items are queued take effect with no
// further submit, and "at most n" holds across the switch — a narrower
// limit waits out handlers started under the wider one.
func TestExecutorLimitChangeReexaminesQueue(t *testing.T) {
	g := newGate(t)
	x := newExecutor(g.run, nil, 0, 0, &overloadCounters{})
	x.setLimit(1)
	submitN(t, x, 8, false)
	waitFor(t, 5*time.Second, "first handler inside", func() bool { return g.inside.Load() == 1 })
	stays(t, "started under single-threading", &g.started, 1)

	x.setLimit(3) // widen: two more start at once, with nothing submitted
	waitFor(t, 5*time.Second, "three handlers inside", func() bool { return g.inside.Load() == 3 })
	stays(t, "started under limit 3", &g.started, 3)

	x.setLimit(1) // narrow: the three leftovers must all return first
	g.letOne()
	g.letOne()
	waitFor(t, 5*time.Second, "two leftovers returned", func() bool { return g.inside.Load() == 1 })
	stays(t, "started beside a leftover under single-threading", &g.started, 3)
	for want := int64(4); want <= 8; want++ {
		g.letOne()
		waitFor(t, 5*time.Second, "next single-threaded start", func() bool { return g.started.Load() == want })
		if in := g.inside.Load(); in > 1 {
			t.Fatalf("%d handlers inside under single-threading", in)
		}
	}
	x.setLimit(0) // nothing queued: a kick with an empty queue is a no-op
	g.open()
	x.close()
}

// TestExecutorStressExactlyOnce races submitters of mixed ordered and
// unordered items against limit flips and a close at a random point:
// every accepted item runs exactly once, close returns, and no goroutine
// outlives it.
func TestExecutorStressExactlyOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		const submitters, perSubmitter = 4, 300
		var ran [submitters * perSubmitter]atomic.Int32
		var inside atomic.Int32
		var alone atomic.Bool // an ordered delivery is inside
		x := newExecutor(func(s submission) bool {
			ran[s.deq].Add(1)
			if in := inside.Add(1); alone.Load() || (s.ordered && in != 1) {
				t.Errorf("item %d (ordered=%v) started with %d inside, ordered inside=%v", s.deq, s.ordered, in, alone.Load())
			}
			alone.Store(s.ordered)
			if s.deq%7 == 0 {
				runtime.Gosched()
			}
			if s.ordered {
				alone.Store(false)
			}
			inside.Add(-1)
			return true
		}, nil, 0, 0, &overloadCounters{})

		var accepted [submitters * perSubmitter]bool
		stop := make(chan struct{})
		var wg, flipper sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					n := s*perSubmitter + i
					accepted[n] = x.submit(&submission{o: freeTick{N: n}, ordered: n%5 == 0, deq: int64(n), class: "freeTick"}) == submitOK
				}
			}()
		}
		flipper.Add(1)
		go func() {
			defer flipper.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					x.setLimit(i % 4)
				}
			}
		}()
		time.Sleep(time.Duration(rand.Intn(2000)) * time.Microsecond)
		x.close() // returns once everything accepted before it has run
		wg.Wait()
		close(stop)
		flipper.Wait()
		if st := x.submit(&submission{o: freeTick{}, class: "freeTick"}); st != submitClosed {
			t.Fatalf("submit after close = %v, want submitClosed", st)
		}
		for n := range ran {
			want := int32(0)
			if accepted[n] {
				want = 1
			}
			if got := ran[n].Load(); got != want {
				t.Fatalf("round %d: item %d (accepted=%v) ran %d times", round, n, accepted[n], got)
			}
		}
	}
	waitFor(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestIdleSubscriptionsHoldNoGoroutine: a subscription that is
// activated but receives nothing costs no goroutine.
func TestIdleSubscriptionsHoldNoGoroutine(t *testing.T) {
	e := newLocalEngine(t)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		sub, err := Subscribe(e, nil, func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("1000 idle subscriptions hold %d goroutines over the baseline of %d", got-baseline, baseline)
	}
}

// TestActivateMarshalsEachFilterOnce pins the set-up cost: activating N
// filtered subscriptions marshals N canonical filters, not one per active
// subscription per activation (N²/2).
func TestActivateMarshalsEachFilterOnce(t *testing.T) {
	var marshals atomic.Int64
	defer func(orig func(*filter.Expr) ([]byte, error)) { marshalFilter = orig }(marshalFilter)
	marshalFilter = func(f *filter.Expr) ([]byte, error) {
		marshals.Add(1)
		return filter.MarshalCanonical(f)
	}
	const n = 60
	e := newLocalEngine(t)
	for i := 0; i < n; i++ {
		sub, err := Subscribe(e, filter.Path("Amount").Eq(filter.Int(int64(i%10))), func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
		if len(sub.info().Filter) == 0 {
			t.Fatal("activated subscription advertises no filter bytes")
		}
	}
	if got := marshals.Load(); got != n {
		t.Errorf("%d canonical marshals for %d subscriptions, want %d", got, n, n)
	}
}

// TestDispatchAllocsPerMatch pins the library's own steady-state cost of
// a delivery: one flat class, 500 subscriptions, 50 matches per event
// and a handler that does nothing. The one box per envelope and the
// drainers' goroutines are all that is left; PR 16 read 3.27 per match.
func TestDispatchAllocsPerMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const subs, matches, events = 500, 50, 2000
	e := newLocalEngine(t)
	var handled atomic.Int64
	for i := 0; i < subs; i++ {
		f := filter.Path("Amount").Eq(filter.Int(int64(i % (subs / matches))))
		sub, err := e.SubscribeDynamic(reflect.TypeOf(StockQuote{}), f, nil, func(obvent.Obvent) { handled.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	env := encodeFrom(t, e, StockQuote{StockObvent{Company: "Acme", Price: 50, Amount: 3}}, "p")
	deliver := func(n int) {
		want := handled.Load() + int64(n*matches)
		for i := 0; i < n; i++ {
			e.deliver(env)
		}
		waitFor(t, 30*time.Second, "every match handled", func() bool { return handled.Load() == want })
	}
	deliver(200) // warm: bucket, plans, scratch, executor queues, goroutine free list

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deliver(events)
	runtime.ReadMemStats(&after)
	perMatch := float64(after.Mallocs-before.Mallocs) / (events * matches)
	t.Logf("%.3f allocations per match", perMatch)
	if perMatch > 0.2 {
		t.Errorf("dispatch allocates %.2f per match, want <= 0.2", perMatch)
	}
}

// TestSharedBoxIsForFlatClassesOnly: two subscribers to a class with a
// slice field still receive obvents with their own backing arrays, seen
// through the raw interface values the executors were handed.
func TestSharedBoxIsForFlatClassesOnly(t *testing.T) {
	e := newLocalEngine(t)
	e.Registry().MustRegister(bookQuote{})
	got := make(chan obvent.Obvent, 2)
	for i := 0; i < 2; i++ {
		sub, err := e.SubscribeDynamic(reflect.TypeOf(bookQuote{}), nil, nil, func(o obvent.Obvent) { got <- o })
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := Publish(e, bookQuote{Company: "Acme", Levels: []float64{9, 8}}); err != nil {
		t.Fatal(err)
	}
	a, b := (<-got).(bookQuote), (<-got).(bookQuote)
	if &a.Levels[0] == &b.Levels[0] {
		t.Fatal("two subscribers share one backing array: local uniqueness violated")
	}
	a.Levels[0] = -1
	if b.Levels[0] != 9 {
		t.Errorf("mutation leaked across subscribers: %+v", b)
	}
}

// TestExecutorQueuesByPriority: behind a running handler, a delivery
// overtakes the queued ones of lower priority and none of at least its
// own, so equal priorities keep submit order.
func TestExecutorQueuesByPriority(t *testing.T) {
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	x := newExecutor(func(s submission) bool {
		if s.id == "running" {
			<-release
		}
		mu.Lock()
		order = append(order, s.id)
		mu.Unlock()
		return true
	}, nil, 0, 0, &overloadCounters{})
	x.setLimit(1)
	submit := func(id string, prio int) {
		if st := x.submit(&submission{o: freeTick{}, prio: prio, id: id, class: "freeTick"}); st != submitOK {
			t.Fatalf("submit %s = %v", id, st)
		}
	}
	submit("running", 0)
	waitFor(t, time.Second, "the first handler", func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.active == 1
	})
	for _, d := range []struct {
		id   string
		prio int
	}{{"low-a", 1}, {"high-a", 9}, {"low-b", 1}, {"zero", 0}, {"high-b", 9}, {"mid", 5}} {
		submit(d.id, d.prio)
	}
	close(release)
	x.close()
	want := []string{"running", "high-a", "high-b", "mid", "low-a", "low-b", "zero"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}
