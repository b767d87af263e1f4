package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/codec"
	"govents/internal/obvent"
)

// This file pins the overload-resilience contract of the lane layer:
// bounded queues with the three overload policies, lane affinity, and
// slow-consumer quarantine. The property stress test runs the full
// engine against an unbounded naive oracle; the rest are deterministic
// lane- and executor-level tests for each mechanism.

// TestOverloadPropertyStress is the overload property test (run under
// -race in CI): a hot publisher bursts into a bounded engine with a
// deliberately wedged consumer, concurrently with ordered traffic from
// several normal publishers. For every policy the ordering contracts
// must survive (per-publisher FIFO, Causal/Total serial order); under
// the lossless policies (Block, Spill) the non-wedged subscriptions
// must reach exactly the oracle's delivery set; and the wedged handler
// must never block the other subscriptions' deliveries — which are all
// asserted complete while the wedge is still held. Each lane drains
// through its own goroutine alone, so the hot publisher's lane keeps up
// with no sibling's help, and LaneStat.Queued, the lane's queue, reads
// zero once it has.
func TestOverloadPropertyStress(t *testing.T) {
	const (
		nPubs   = 4
		nEvents = 90
		bound   = 32
		budget  = 20 * time.Millisecond
		mailbox = 64
	)
	cases := []struct {
		name     string
		policy   OverloadPolicy
		lossless bool
	}{
		{"block", OverloadBlock, true},
		{"drop-oldest", OverloadDropOldest, false},
		{"spill", OverloadSpill, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obvent.NewRegistry()
			registerTickTypes(reg)

			opts := []Option{
				WithRegistry(reg), WithDispatchLanes(4),
				WithLaneQueueBound(bound), WithOverloadPolicy(tc.policy),
				WithSlowConsumerBudget(budget, mailbox),
			}
			if tc.policy == OverloadSpill {
				opts = append(opts, WithSpillDir(t.TempDir()))
			}
			bounded := NewEngine("bounded", NewLocal(), opts...)
			t.Cleanup(func() { _ = bounded.Close() })
			oracle := NewEngine("oracle", NewLocal(), WithRegistry(reg),
				WithNaiveDispatch(), WithDispatchLanes(1))
			t.Cleanup(func() { _ = oracle.Close() })

			mustActivate := func(sub *Subscription, err error) *Subscription {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if err := sub.Activate(); err != nil {
					t.Fatal(err)
				}
				return sub
			}

			// The wedged consumer: single-threaded, every delivery blocks
			// until release. It must quarantine, shed into its own
			// accounting, and never slow anyone else down.
			release := make(chan struct{})
			var wedgeHeld atomic.Int64
			wedged := mustActivate(Subscribe(bounded, nil, func(o freeTick) {
				wedgeHeld.Add(1)
				<-release
			}))
			wedged.SetSingleThreading()

			// Delivery logs. The slow local filters (bounded engine only)
			// throttle the dispatch lanes so the burst genuinely overloads
			// the bounded queues; the oracle's filters pass instantly.
			// Delivery sets are keyed (subscription, publisher, N).
			type key struct {
				sub string
				pub string
				n   int
			}
			type rec struct {
				pub string
				n   int
			}
			var mu sync.Mutex
			sets := map[string]map[key]int{"bounded": {}, "oracle": {}}
			logs := map[string][]rec{} // ordered logs, bounded engine only
			counts := map[string]*atomic.Int64{"bounded": {}, "oracle": {}}
			collectFree := func(which, sub string, slow bool) func(freeTick) bool {
				return func(o freeTick) bool {
					if slow {
						time.Sleep(50 * time.Microsecond)
					}
					mu.Lock()
					sets[which][key{sub, o.Pub, o.N}]++
					mu.Unlock()
					counts[which].Add(1)
					return true
				}
			}
			appendLog := func(which, kind string, slow bool) func(pub string, n int) {
				return func(pub string, n int) {
					if slow {
						time.Sleep(50 * time.Microsecond)
					}
					mu.Lock()
					logs[kind] = append(logs[kind], rec{pub, n})
					mu.Unlock()
					counts[which].Add(1)
				}
			}
			// Bounded engine: a plain collector riding a slow local filter
			// (dispatch-lane work, so lanes actually back up), plus ordered
			// collectors. SubscribeFiltered's local predicate runs on the
			// lane goroutine, which is what makes the lanes saturate.
			mustActivate(SubscribeFiltered(bounded, nil,
				collectFree("bounded", "plain", true), func(freeTick) {}))
			fifoLog := appendLog("bounded", "fifo", false)
			mustActivate(Subscribe(bounded, nil, func(o fifoTick) { fifoLog(o.Pub, o.N) }))
			causalLog := appendLog("bounded", "causal", true)
			mustActivate(SubscribeFiltered(bounded, nil,
				func(o causalTick) bool { time.Sleep(50 * time.Microsecond); return true },
				func(o causalTick) { causalLog(o.Pub, o.N) }))
			totalLog := appendLog("bounded", "total", false)
			mustActivate(Subscribe(bounded, nil, func(o totalTick) { totalLog(o.Pub, o.N) }))

			// Oracle mirrors of the free set (the ordered contracts are
			// checked directly on the bounded log; the free delivery set is
			// compared against the oracle's).
			mustActivate(SubscribeFiltered(oracle, nil,
				collectFree("oracle", "plain", false), func(freeTick) {}))
			oracleOrdered := func(pub string, n int) { counts["oracle"].Add(1) }
			mustActivate(Subscribe(oracle, nil, func(o fifoTick) { oracleOrdered(o.Pub, o.N) }))
			mustActivate(Subscribe(oracle, nil, func(o causalTick) { oracleOrdered(o.Pub, o.N) }))
			mustActivate(Subscribe(oracle, nil, func(o totalTick) { oracleOrdered(o.Pub, o.N) }))

			deliverBoth := func(o obvent.Obvent, pub string) {
				env, err := bounded.codec.Encode(o)
				if err != nil {
					t.Error(err)
					return
				}
				env.Publisher = pub
				bounded.deliver(env)
				oracle.deliver(env)
			}

			// Normal publishers: interleaved free + ordered traffic.
			var wg sync.WaitGroup
			for p := 0; p < nPubs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pub := fmt.Sprintf("pub-%d", p)
					for n := 0; n < nEvents; n++ {
						deliverBoth(freeTick{Pub: pub, N: n}, pub)
						switch n % 3 {
						case 0:
							deliverBoth(fifoTick{Pub: pub, N: n}, pub)
						case 1:
							deliverBoth(causalTick{Pub: pub, N: n}, pub)
						default:
							deliverBoth(totalTick{Pub: pub, N: n}, pub)
						}
					}
				}(p)
			}

			// The hot publisher bursts in waves until the wedged consumer
			// has provably quarantined and overflowed its mailbox.
			var hotSent int
			wg.Add(1)
			go func() {
				defer wg.Done()
				const wave, maxWaves = 200, 60
				for w := 0; w < maxWaves; w++ {
					for i := 0; i < wave; i++ {
						deliverBoth(freeTick{Pub: "hot", N: hotSent}, "hot")
						hotSent++
					}
					st := bounded.Stats()
					if st.Quarantines >= 1 && st.SlowConsumerDrops >= 1 && w >= 4 {
						return
					}
				}
			}()
			wg.Wait()

			nFree := hotSent + nPubs*nEvents
			nOrderedEach := nPubs * nEvents / 3
			waitDrained := func(e *Engine, what string, cond func() bool) {
				t.Helper()
				deadline := time.Now().Add(60 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timeout waiting for %s: stats=%+v lanes=%+v",
							what, e.Stats(), e.LaneStats())
					}
					time.Sleep(time.Millisecond)
				}
			}
			// All routed traffic must leave the lanes (memory and spill)
			// no matter the policy — a wedged consumer must not wedge a
			// lane. This is asserted while the wedge is still held.
			waitDrained(bounded, "bounded lanes drained", func() bool {
				var enq uint64
				for _, l := range bounded.LaneStats() {
					enq += l.Enqueued
					if l.Queued != 0 || l.SpillBacklog != 0 {
						return false
					}
				}
				return enq+bounded.Stats().Shed >= uint64(nFree+3*nOrderedEach)
			})
			waitDrained(oracle, "oracle complete", func() bool {
				return counts["oracle"].Load() == int64(nFree+3*nOrderedEach)
			})

			if tc.lossless {
				// Lossless policies: every non-wedged subscription reaches
				// the oracle's exact delivery set — again while the wedged
				// handler is still blocked, proving isolation.
				waitDrained(bounded, "bounded deliveries complete", func() bool {
					return counts["bounded"].Load() == int64(nFree+3*nOrderedEach)
				})
				mu.Lock()
				bset, oset := sets["bounded"], sets["oracle"]
				if len(bset) != len(oset) {
					t.Errorf("delivery sets differ in size: bounded %d, oracle %d", len(bset), len(oset))
				}
				for k, n := range oset {
					if bset[k] != n {
						t.Errorf("delivery %+v: bounded %d, oracle %d", k, bset[k], n)
					}
				}
				mu.Unlock()
				if shed := bounded.Stats().Shed; shed != 0 {
					t.Errorf("lossless policy %v shed %d envelopes", tc.policy, shed)
				}
			} else {
				// DropOldest: let in-flight handlers finish, then check
				// below that what was delivered is ordered.
				time.Sleep(50 * time.Millisecond)
			}
			if tc.policy == OverloadSpill && bounded.Stats().Spilled == 0 {
				t.Error("spill policy never spilled; burst did not overload the bounded lanes")
			}
			if tc.policy == OverloadSpill {
				if st := bounded.Stats(); st.SpillDrained != st.Spilled {
					t.Errorf("spill backlog not fully drained: spilled %d, drained %d", st.Spilled, st.SpillDrained)
				}
			}

			// Ordering contracts: per-publisher delivery order must be a
			// strictly increasing subsequence of publication order for all
			// three ordered kinds, under every policy (sheds may leave
			// gaps; they must never reorder).
			mu.Lock()
			for kind, log := range logs {
				last := map[string]int{}
				for i, r := range log {
					if prev, seen := last[r.pub]; seen && r.n <= prev {
						t.Fatalf("%s: publisher %s delivered out of order at %d: %d after %d",
							kind, r.pub, i, r.n, prev)
					}
					last[r.pub] = r.n
				}
				if tc.lossless && len(log) != nOrderedEach {
					t.Errorf("%s: delivered %d, want %d", kind, len(log), nOrderedEach)
				}
			}
			mu.Unlock()

			// The wedge really was held the whole time: exactly one
			// handler invocation entered and none left.
			if got := wedgeHeld.Load(); got != 1 {
				t.Errorf("wedged handler invocations = %d, want exactly 1 (single-threaded wedge)", got)
			}
			st := bounded.Stats()
			if st.Quarantines < 1 {
				t.Errorf("Quarantines = %d, want >= 1", st.Quarantines)
			}
			if st.SlowConsumerDrops < 1 {
				t.Errorf("SlowConsumerDrops = %d, want >= 1", st.SlowConsumerDrops)
			}

			close(release)
		})
	}
}

// collidingPublishers returns two distinct publishers that hash onto the
// same one of n parallel lanes: one to wedge the lane's goroutine with,
// one whose envelopes queue behind the wedge.
func collidingPublishers(n int) (victimPub, hotPub string, lane int) {
	victimPub = "victim-pub"
	lane = laneIndex(victimPub, n)
	for i := 0; ; i++ {
		if p := fmt.Sprintf("hot-%d", i); laneIndex(p, n) == lane {
			return victimPub, p, lane
		}
	}
}

// TestParallelLaneAffinity pins that a parallel lane is drained by its
// own goroutine and nothing else. Two lanes; lane L is wedged inside the
// handler of publisher A's envelope. Publisher C hashes onto L too and
// publisher B onto the other lane. B's envelopes all run on B's lane
// while L is wedged; none of C's runs before the wedge is released,
// however idle the other lane is; then C's run on L in publication order.
func TestParallelLaneAffinity(t *testing.T) {
	const n = 64
	pubA, pubC, wedgedLane := collidingPublishers(2)
	pubB := "b-0"
	for i := 1; laneIndex(pubB, 2) == wedgedLane; i++ {
		pubB = fmt.Sprintf("b-%d", i)
	}

	var mu sync.Mutex
	var released bool
	var gotC []int
	var early int                      // C's envelopes dispatched before the release
	lanes := map[string][]*laneState{} // publisher -> lane state of each dispatch
	wedged, release, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ls := newLaneSet(obvent.NewRegistry(), 2, func(env *codec.Envelope, st *laneState) {
		if env.ID == "blocker" {
			close(wedged)
			<-release
			return
		}
		mu.Lock()
		defer mu.Unlock()
		lanes[env.Publisher] = append(lanes[env.Publisher], st)
		switch env.Publisher {
		case pubC:
			gotC = append(gotC, int(env.PubNanos))
			if !released {
				early++
			}
		case pubB:
			if len(lanes[pubB]) == n {
				close(bDone)
			}
		}
	}, nil, laneConfig{})
	route := func(id, pub string, seq int) {
		ls.route(&codec.Envelope{ID: id, Publisher: pub, PubNanos: int64(seq), Ordering: obvent.FIFO})
	}

	route("blocker", pubA, 0)
	<-wedged
	for i := 0; i < n; i++ {
		route(fmt.Sprintf("c-%d", i), pubC, i)
	}
	for i := 0; i < n; i++ {
		route(fmt.Sprintf("b-%d", i), pubB, i)
	}
	<-bDone
	mu.Lock()
	released = true
	mu.Unlock()
	close(release)
	ls.close()

	if early != 0 {
		t.Errorf("%d of C's %d envelopes dispatched while their lane was wedged", early, n)
	}
	for pub, want := range map[string]*laneState{pubB: &ls.par[1-wedgedLane].st, pubC: &ls.par[wedgedLane].st} {
		for i, st := range lanes[pub] {
			if st != want {
				t.Errorf("publisher %s: envelope %d dispatched off its lane", pub, i)
				break
			}
		}
	}
	if len(gotC) != n {
		t.Fatalf("C delivered %d, want %d", len(gotC), n)
	}
	for i, seq := range gotC {
		if seq != i {
			t.Fatalf("C delivered out of publication order at %d: %v", i, gotC)
		}
	}
}

// overloadPolicyRows is the one table of lane-level overload behaviour,
// driven through the one lane constructor in both orders. Each row
// wedges a lane, pushes one envelope per entry of prios (IDs e0, e1, …,
// one publisher) and releases it. Rows with mixed priorities are the
// serial-only expectations: a ring ignores priority.
var overloadPolicyRows = []struct {
	name   string
	orders []laneOrder // nil: both
	cfg    laneConfig
	prios  []int
	// blocks says the last push must not return until the lane is released.
	blocks bool
	// want is the dispatch order after the wedge; shed and spilled are the
	// lane's counters once closed (everything spilled must drain).
	want          string
	shed, spilled uint64
}{
	{
		name:  "block",
		cfg:   laneConfig{bound: 2, policy: OverloadBlock},
		prios: make([]int, 3), blocks: true,
		want: "[e0 e1 e2]",
	},
	{
		// The last bound arrivals survive, in order.
		name:  "drop-oldest",
		cfg:   laneConfig{bound: 4, policy: OverloadDropOldest},
		prios: make([]int, 10),
		want:  "[e6 e7 e8 e9]", shed: 6,
	},
	{
		// bound in memory, the rest on disk; arrival order survives the
		// round trip.
		name:  "spill",
		cfg:   laneConfig{bound: 2, policy: OverloadSpill},
		prios: make([]int, 10),
		want:  "[e0 e1 e2 e3 e4 e5 e6 e7 e8 e9]", spilled: 8,
	},
	{
		// The shed victim is the oldest arrival whatever its priority;
		// the survivors still overtake by priority.
		name: "drop-oldest-priorities", orders: []laneOrder{priorityOrder},
		cfg:   laneConfig{bound: 3, policy: OverloadDropOldest},
		prios: []int{1, 9, 1, 5, 9},
		want:  "[e4 e3 e2]", shed: 2,
	},
	{
		// A spill record carries its priority, and overtaking applies
		// within the in-memory window: e1 overtakes e0 in the first
		// window, the refilled e2..e4 re-sort among themselves, and
		// nothing on disk overtakes what was in memory before it.
		name: "spill-priorities", orders: []laneOrder{priorityOrder},
		cfg:   laneConfig{bound: 2, policy: OverloadSpill},
		prios: []int{1, 9, 9, 1, 5},
		want:  "[e1 e0 e2 e4 e3]", spilled: 3,
	},
}

// testLaneOverloadPolicies runs every row of overloadPolicyRows that
// applies to the order, with the lane goroutine wedged so the queue state
// is fully controlled.
func testLaneOverloadPolicies(t *testing.T, order laneOrder) {
	for _, row := range overloadPolicyRows {
		if row.orders != nil && !slices.Contains(row.orders, order) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			if cfg.policy == OverloadSpill {
				cfg.spillDir = t.TempDir()
			}
			l, dispatched, release := newWedgedLane(t, order, cfg)
			push := func(i int) {
				l.push(&codec.Envelope{ID: fmt.Sprintf("e%d", i), Type: "freeTick", Publisher: "p"}, row.prios[i])
			}
			n := len(row.prios)
			if row.blocks {
				n--
			}
			for i := 0; i < n; i++ {
				push(i)
			}
			unblocked := make(chan struct{})
			if row.blocks {
				go func() {
					push(n) // full: must block
					close(unblocked)
				}()
				select {
				case <-unblocked:
					t.Fatal("push into a full Block-policy lane returned immediately")
				case <-time.After(50 * time.Millisecond):
				}
			}
			if st := l.stat(0); st.SpillBacklog != int(row.spilled) || st.Queued > cfg.bound {
				t.Fatalf("wedged lane holds %d in memory and %d on disk, want at most bound %d and %d",
					st.Queued, st.SpillBacklog, cfg.bound, row.spilled)
			}
			release() // lane drains; a blocked pusher must complete
			if row.blocks {
				select {
				case <-unblocked:
				case <-time.After(5 * time.Second):
					t.Fatal("blocked pusher never unblocked after the lane drained")
				}
			}
			l.close() // drains memory, then the spill backlog
			if got := fmt.Sprint(dispatched()); got != row.want {
				t.Errorf("dispatched %v, want %s", got, row.want)
			}
			c := &l.st.counters
			if shed, sp, dr := c.shed.Load(), c.spilled.Load(), c.spillDrained.Load(); shed != row.shed || sp != row.spilled || dr != row.spilled {
				t.Errorf("shed/spilled/drained = %d/%d/%d, want %d/%d/%d", shed, sp, dr, row.shed, row.spilled, row.spilled)
			}
		})
	}
}

// TestFifoLaneOverloadPolicies pins each policy's exact lane-level
// semantics on an arrival-ordered (parallel) lane.
func TestFifoLaneOverloadPolicies(t *testing.T) { testLaneOverloadPolicies(t, arrivalOrder) }

// TestSerialInboxOverloadPolicies runs the same rows on the
// priority-ordered (causal/total/prioritary) lane, plus the rows only a
// priority order can show.
func TestSerialInboxOverloadPolicies(t *testing.T) { testLaneOverloadPolicies(t, priorityOrder) }

// TestBoundedLaneQueueShrinksAfterOverload extends the memory pin to
// bounded lanes: a queue that filled to a large bound under sustained
// overload (the second half of the pushes sheds; the queue stays full)
// must still release its high-water backing array once drained.
func TestBoundedLaneQueueShrinksAfterOverload(t *testing.T) {
	testLaneQueueShrinks(t, laneConfig{bound: 4096, policy: OverloadDropOldest}, 2*4096)
}

// TestExecutorQuarantineLifecycle drives one executor through the full
// slow-consumer isolation cycle: stall detection → quarantine →
// bounded-mailbox sheds → recovery once the handler resumes.
func TestExecutorQuarantineLifecycle(t *testing.T) {
	const (
		budget  = 5 * time.Millisecond
		mailbox = 8
	)
	counters := &overloadCounters{}
	started := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Int64
	var once sync.Once
	x := newExecutor(func(s submission) bool {
		if s.id == "wedge" {
			once.Do(func() { close(started) })
			<-release
		}
		done.Add(1)
		return true
	}, nil, budget, mailbox, counters)
	defer x.close()
	x.setLimit(1) // single-threading: the wedge blocks the whole queue, the worst case

	x.submit(&submission{o: freeTick{N: 0}, id: "wedge", class: "freeTick"})
	<-started
	time.Sleep(3 * budget) // the era is now provably past the budget

	// Feed until the mailbox overflows: the first post-stall submit with
	// a queued backlog flips the quarantine, bound kicks in after.
	var shed int
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; shed == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("mailbox never overflowed: quarantines=%d quarantined=%v",
				counters.quarantines.Load(), x.quarantined.Load())
		}
		if x.submit(&submission{o: freeTick{N: i}, id: fmt.Sprintf("e%d", i), class: "freeTick"}) == submitShed {
			shed++
		}
	}
	if q := counters.quarantines.Load(); q != 1 {
		t.Errorf("quarantines = %d, want 1", q)
	}
	if d := counters.slowDrops.Load(); d < 1 {
		t.Errorf("slowDrops = %d, want >= 1", d)
	}
	if !x.quarantined.Load() {
		t.Error("executor not marked quarantined")
	}

	// Recovery: release the handler; the mailbox drains, the quarantine
	// lifts, and new submissions flow again.
	close(release)
	waitFor(t, 10*time.Second, "quarantine release", func() bool {
		return !x.quarantined.Load()
	})
	before := done.Load()
	if st := x.submit(&submission{o: freeTick{N: -1}, id: "after", class: "freeTick"}); st != submitOK {
		t.Fatalf("post-recovery submit = %v, want submitOK", st)
	}
	waitFor(t, 10*time.Second, "post-recovery delivery", func() bool {
		return done.Load() > before
	})
}

// TestWedgedConsumerShutdownAndLeak pins the teardown half of
// slow-consumer isolation: an engine hosting a provably wedged handler
// must (1) let Deactivate return immediately, (2) close without
// hanging on the wedged handler, and (3) leak no goroutines beyond the
// handler's own lifetime — once the handler returns, everything drains.
func TestWedgedConsumerShutdownAndLeak(t *testing.T) {
	countGoroutines := func() int { return runtime.NumGoroutine() }
	baseline := countGoroutines()

	const budget = 5 * time.Millisecond
	e := NewEngine("leak", NewLocal(), WithDispatchLanes(2),
		WithSlowConsumerBudget(budget, 16))
	registerTickTypes(e.Registry())

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sub, err := Subscribe(e, nil, func(o freeTick) {
		once.Do(func() { close(started) })
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.SetSingleThreading()
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		e.deliver(encodeFrom(t, e, freeTick{Pub: "p", N: i}, "p"))
	}
	<-started
	time.Sleep(3 * budget) // make the stall provable

	if err := sub.Deactivate(); err != nil {
		t.Fatalf("Deactivate with a wedged handler: %v", err)
	}

	closed := make(chan struct{})
	go func() {
		_ = e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("engine close hung on the wedged handler")
	}

	// The wedged handler still holds its goroutine (the abandoned
	// drainer); once it returns, everything must drain back to baseline.
	close(release)
	waitFor(t, 10*time.Second, "goroutines drained after handler release", func() bool {
		runtime.GC()
		return countGoroutines() <= baseline+2
	})
}

// TestLocalOverloadBlockReachesPublish: in a local domain the publisher
// is the goroutine that feeds the lane, so a full OverloadBlock lane
// holds up Publish. A local filter wedges the one lane on the first
// publication, the next bound fill its queue, and the one after must
// not return until the wedge lifts: the test waits until the publishing
// goroutine is parked in the lane's push (or until every Publish has
// returned, which is the failure) rather than for a while. Then every
// publication is delivered, in order.
func TestLocalOverloadBlockReachesPublish(t *testing.T) {
	const bound, total = 2, 6
	reg := obvent.NewRegistry()
	registerTickTypes(reg)
	e := NewEngine("local", NewLocal(), WithRegistry(reg), WithDispatchLanes(1),
		WithLaneQueueBound(bound), WithOverloadPolicy(OverloadBlock))
	t.Cleanup(func() { _ = e.Close() })

	wedge := make(chan struct{})
	var wedged atomic.Bool
	var mu sync.Mutex
	var got []int
	sub, err := SubscribeLocal(e, func(o freeTick) bool {
		if o.N == 0 {
			wedged.Store(true)
			<-wedge
		}
		return true
	}, func(o freeTick) {
		mu.Lock()
		got = append(got, o.N)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	unwedge := sync.OnceFunc(func() { close(wedge) })
	t.Cleanup(unwedge)

	var returned atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := range total {
			if err := Publish(e, freeTick{Pub: "p", N: i}); err != nil {
				done <- err
				return
			}
			returned.Add(1)
		}
		done <- nil
	}()
	queued := func() int {
		for _, l := range e.LaneStats() {
			if !l.Serial {
				return l.Queued
			}
		}
		return -1
	}
	waitFor(t, 10*time.Second, "the publisher parked on the full lane, or every Publish returned", func() bool {
		return returned.Load() == total ||
			wedged.Load() && queued() == bound && goroutineIn("TestLocalOverloadBlockReachesPublish", "(*lane).push")
	})
	if n := returned.Load(); n > bound+1 {
		t.Fatalf("%d of %d Publish calls returned while the lane was wedged, want at most %d", n, total, bound+1)
	}

	unwedge()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "every publication delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range got {
		if n != i {
			t.Fatalf("delivered %v, want 0..%d in order", got, total-1)
		}
	}
}

// goroutineIn reports whether some goroutine's stack names every one
// of frames.
func goroutineIn(frames ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !slices.ContainsFunc(frames, func(f string) bool { return !strings.Contains(g, f) }) {
			return true
		}
	}
	return false
}
