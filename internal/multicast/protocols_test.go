package multicast

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"govents/internal/clock"
	"govents/internal/durable"
	"govents/internal/netsim"
)

// testNode bundles a mux and a recorder of deliveries.
type testNode struct {
	mux *Mux

	mu   sync.Mutex
	msgs []delivery
}

type delivery struct {
	origin  string
	payload string
}

// newTestNode opens an endpoint that overwrites every frame once it is
// sent (scribbleTransport), so that every protocol test checks that no
// layer keeps a sent frame.
func newTestNode(t *testing.T, net *netsim.Network, addr string) *testNode {
	t.Helper()
	ep, err := net.NewEndpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &testNode{mux: NewMux(scribbleTransport{ep})}
}

func (n *testNode) record(origin string, payload []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.msgs = append(n.msgs, delivery{origin: origin, payload: string(payload)})
}

func (n *testNode) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.msgs)
}

func (n *testNode) payloads() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.msgs))
	for i, d := range n.msgs {
		out[i] = d.payload
	}
	return out
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// fastOpts keeps protocol timers tight for tests.
func fastOpts() Options {
	return Options{RetransmitInterval: 5 * time.Millisecond}
}

// fakeOpts is fastOpts on a fake clock, which the test moves.
func fakeOpts() (Options, *clock.Fake) {
	clk := clock.NewFake(time.Unix(0, 0))
	opts := fastOpts()
	opts.Clock = clk
	return opts, clk
}

// fakePeriod is the timer period of fakeOpts' links.
const fakePeriod = 5 * time.Millisecond / ticksPerInterval

// advanceUntil lets net settle and moves clk a timer period, again and
// again, until cond holds, and fails if it does not within 10 s of fake
// time.
func advanceUntil(t *testing.T, net *netsim.Network, clk *clock.Fake, what string, cond func() bool) {
	t.Helper()
	for range 10 * time.Second / fakePeriod {
		if net.Settle(); cond() {
			return
		}
		clk.Advance(fakePeriod)
	}
	t.Fatalf("no %s within 10 s of fake time", what)
}

// advance moves clk d a timer period at a time, and lets net settle
// after each.
func advance(net *netsim.Network, clk *clock.Fake, d time.Duration) {
	for range d / fakePeriod {
		clk.Advance(fakePeriod)
		net.Settle()
	}
}

func addrs(nodes []*testNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.mux.Addr()
	}
	return out
}

func TestMuxRouting(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")

	var s1, s2 []string
	var mu sync.Mutex
	b.mux.Handle("s1", func(from string, p []byte) {
		mu.Lock()
		defer mu.Unlock()
		s1 = append(s1, string(p))
	})
	b.mux.Handle("s2", func(from string, p []byte) {
		mu.Lock()
		defer mu.Unlock()
		s2 = append(s2, string(p))
	})
	if err := sendRaw(a.mux, "b", "s1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := sendRaw(a.mux, "b", "s2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := sendRaw(a.mux, "b", "unknown", []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	mu.Lock()
	defer mu.Unlock()
	if len(s1) != 1 || s1[0] != "one" {
		t.Errorf("s1 = %v", s1)
	}
	if len(s2) != 1 || s2[0] != "two" {
		t.Errorf("s2 = %v", s2)
	}
}

func TestBestEffortDeliversToAllOnPerfectNetwork(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := []*testNode{newTestNode(t, net, "a"), newTestNode(t, net, "b"), newTestNode(t, net, "c")}
	var groups []*BestEffort
	for _, n := range nodes {
		n := n
		g := NewBestEffort(n.mux, "cls", n.record)
		groups = append(groups, g)
	}
	for _, g := range groups {
		g.SetMembers(addrs(nodes))
	}
	defer func() {
		for _, g := range groups {
			_ = g.Close()
		}
	}()

	if err := groups[0].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	waitFor(t, time.Second, "all deliveries", func() bool {
		for _, n := range nodes {
			if n.count() != 1 {
				return false
			}
		}
		return true
	})
	for _, n := range nodes {
		n.mu.Lock()
		if n.msgs[0].origin != "a" || n.msgs[0].payload != "hello" {
			t.Errorf("node got %+v", n.msgs[0])
		}
		n.mu.Unlock()
	}
}

func TestBestEffortLosesUnderLoss(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 1.0})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	ga := NewBestEffort(a.mux, "cls", a.record)
	gb := NewBestEffort(b.mux, "cls", b.record)
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	_ = ga.Broadcast([]byte("x"))
	net.Settle()
	waitFor(t, time.Second, "local delivery", func() bool { return a.count() == 1 })
	if b.count() != 0 {
		t.Error("best effort must not mask total loss")
	}
}

func TestReliableDeliversDespiteLoss(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.4, Seed: 3})
	defer net.Close()
	nodes := []*testNode{newTestNode(t, net, "a"), newTestNode(t, net, "b"), newTestNode(t, net, "c")}
	var groups []*Reliable
	for _, n := range nodes {
		n := n
		groups = append(groups, NewReliable(n.mux, "cls", n.record, fastOpts()))
	}
	for _, g := range groups {
		g.SetMembers(addrs(nodes))
	}
	defer func() {
		for _, g := range groups {
			_ = g.Close()
		}
	}()

	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := groups[0].Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "reliable delivery under loss", func() bool {
		for _, n := range nodes {
			if n.count() != msgs {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "outbox drained", func() bool { return groups[0].Outstanding() == 0 })
}

func TestReliableDedupUnderDuplication(t *testing.T) {
	net := netsim.New(netsim.Config{DupRate: 1.0})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	ga := NewReliable(a.mux, "cls", a.record, fastOpts())
	gb := NewReliable(b.mux, "cls", b.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	gb.SetMembers([]string{"a", "b"})

	for i := 0; i < 10; i++ {
		_ = ga.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	waitFor(t, 5*time.Second, "deliveries", func() bool { return b.count() >= 10 })
	// Allow extra duplicated deliveries to arrive, then verify dedup.
	time.Sleep(50 * time.Millisecond)
	if b.count() != 10 {
		t.Errorf("b delivered %d, want exactly 10 (dedup)", b.count())
	}
}

func TestReliableMemberRemovalClearsPending(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	ga := NewReliable(a.mux, "cls", a.record, fastOpts())
	defer ga.Close()
	ga.SetMembers([]string{"a", "ghost"}) // ghost never acks (doesn't exist)
	_ = ga.Broadcast([]byte("x"))
	if ga.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", ga.Outstanding())
	}
	ga.SetMembers([]string{"a"}) // ghost leaves
	waitFor(t, 5*time.Second, "pending cleared", func() bool { return ga.Outstanding() == 0 })
}

func TestFIFOOrderUnderLossAndLatency(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.3, MinLatency: 0, MaxLatency: 3 * time.Millisecond, Seed: 11})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	ga := NewFIFO(a.mux, "cls", a.record, fastOpts())
	gb := NewFIFO(b.mux, "cls", b.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	gb.SetMembers([]string{"a", "b"})

	const msgs = 30
	for i := 0; i < msgs; i++ {
		if err := ga.Broadcast([]byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "fifo delivery", func() bool { return b.count() == msgs })
	got := b.payloads()
	for i := 0; i < msgs; i++ {
		if want := fmt.Sprintf("m%03d", i); got[i] != want {
			t.Fatalf("position %d = %q, want %q: FIFO order violated", i, got[i], want)
		}
	}
	// Publisher's own deliveries are in order too.
	got = a.payloads()
	for i := 0; i < msgs; i++ {
		if want := fmt.Sprintf("m%03d", i); got[i] != want {
			t.Fatalf("local position %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestFIFOInterleavedPublishers(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 2 * time.Millisecond, Seed: 5})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")
	ga := NewFIFO(a.mux, "cls", a.record, fastOpts())
	gb := NewFIFO(b.mux, "cls", b.record, fastOpts())
	gc := NewFIFO(c.mux, "cls", c.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"a", "b", "c"}
	ga.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	const per = 15
	var wg sync.WaitGroup
	for name, g := range map[string]*FIFO{"a": ga, "b": gb} {
		wg.Add(1)
		go func(name string, g *FIFO) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = g.Broadcast([]byte(fmt.Sprintf("%s%03d", name, i)))
			}
		}(name, g)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all delivered at c", func() bool { return c.count() == 2*per })

	// Per-origin order must hold at c even with interleaving.
	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[string]int{"a": 0, "b": 0}
	for _, d := range c.msgs {
		name := d.payload[:1]
		if want := fmt.Sprintf("%s%03d", name, next[name]); d.payload != want {
			t.Fatalf("origin %s out of order: got %q, want %q", name, d.payload, want)
		}
		next[name]++
	}
}

func TestCausalOrderRespectsHappensBefore(t *testing.T) {
	// Topology: a publishes m1; b receives m1 then publishes m2 (which
	// causally depends on m1); c must never deliver m2 before m1, even
	// though the direct a->c link is slow.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")

	// Make a->c slow by partitioning it until m2 reaches c first.
	ga := NewCausal(a.mux, "cls", a.record, fastOpts())
	gb := NewCausal(b.mux, "cls", b.record, fastOpts())
	gc := NewCausal(c.mux, "cls", c.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"a", "b", "c"}
	ga.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	net.Partition([]string{"a"}, []string{"c"}) // delay m1 toward c

	if err := ga.Broadcast([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "b delivers m1", func() bool { return b.count() == 1 })
	if err := gb.Broadcast([]byte("m2")); err != nil {
		t.Fatal(err)
	}

	// Give m2 ample time to reach c while m1 is still blocked; c must
	// hold it back.
	waitFor(t, 5*time.Second, "c holds m2", func() bool { return gc.Held() == 1 })
	if c.count() != 0 {
		t.Fatalf("c delivered %d messages while m1 is partitioned away", c.count())
	}

	net.Heal()
	waitFor(t, 5*time.Second, "c delivers both", func() bool { return c.count() == 2 })
	got := c.payloads()
	if got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("c order = %v, want [m1 m2]", got)
	}
}

func TestCausalConcurrentMessagesBothDelivered(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.2, Seed: 9})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")
	ga := NewCausal(a.mux, "cls", a.record, fastOpts())
	gb := NewCausal(b.mux, "cls", b.record, fastOpts())
	gc := NewCausal(c.mux, "cls", c.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"a", "b", "c"}
	ga.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	// Concurrent publications (no causal relation).
	_ = ga.Broadcast([]byte("from-a"))
	_ = gb.Broadcast([]byte("from-b"))
	waitFor(t, 10*time.Second, "c delivers both", func() bool { return c.count() == 2 })
}

func TestTotalOrderAgreement(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.25, MaxLatency: 2 * time.Millisecond, Seed: 17})
	defer net.Close()
	names := []string{"seq", "b", "c", "d"}
	var nodes []*testNode
	for _, name := range names {
		nodes = append(nodes, newTestNode(t, net, name))
	}
	var groups []*Total
	for _, n := range nodes {
		n := n
		groups = append(groups, NewTotal(n.mux, "cls", "seq", n.record, fastOpts()))
	}
	for _, g := range groups {
		g.SetMembers(addrs(nodes))
	}
	defer func() {
		for _, g := range groups {
			_ = g.Close()
		}
	}()

	// Every node publishes concurrently.
	const per = 10
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *Total) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = g.Broadcast([]byte(fmt.Sprintf("n%d-%d", i, j)))
			}
		}(i, g)
	}
	wg.Wait()

	total := per * len(groups)
	waitFor(t, 15*time.Second, "total delivery", func() bool {
		for _, n := range nodes {
			if n.count() != total {
				return false
			}
		}
		return true
	})

	// All nodes must have identical delivery sequences.
	ref := nodes[0].payloads()
	for i, n := range nodes[1:] {
		got := n.payloads()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("node %d position %d = %q, reference %q: total order violated", i+1, j, got[j], ref[j])
			}
		}
	}
}

// stateSize sums, over everything reachable from v through this
// package's own types, the entries of every map and the capacity of
// every slice that is not a byte string: what a group remembers, in
// units that a table keyed by message would grow by one per message.
// The mux, the transport beneath it and the logger are not the group's.
func stateSize(v reflect.Value, seen map[unsafe.Pointer]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.UnsafePointer()] || v.Type() == reflect.TypeOf((*Mux)(nil)) {
			return 0
		}
		seen[v.UnsafePointer()] = true
		return stateSize(v.Elem(), seen)
	case reflect.Struct:
		if v.Type().PkgPath() != reflect.TypeOf(Reliable{}).PkgPath() {
			return 0
		}
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += stateSize(v.Field(i), seen)
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += stateSize(it.Value(), seen)
		}
		return n
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return 0
		}
		n := v.Cap()
		for i := 0; i < v.Len(); i++ {
			n += stateSize(v.Index(i), seen)
		}
		return n
	}
	return 0
}

// TestTotalStateBoundedByInFlight publishes 20 000 messages from a
// member that is not the sequencer, at most a window of them in flight:
// afterwards neither the sequencer, nor the publisher, nor a third
// member may hold anything that grew with the messages sequenced.
func TestTotalStateBoundedByInFlight(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 13})
	defer net.Close()
	names := []string{"seq", "b", "c"}
	groups := make(map[string]*Total)
	var atC atomic.Int64
	for _, name := range names {
		deliver := func(string, []byte) {}
		if name == "c" {
			deliver = func(string, []byte) { atC.Add(1) }
		}
		g := NewTotal(newTestNode(t, net, name).mux, "cls", "seq", deliver, Options{})
		g.SetMembers(names)
		defer g.Close()
		groups[name] = g
	}

	const total, window = 20_000, 256
	payload := []byte("m")
	for i := int64(0); i < total; i++ {
		for i-atC.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		if err := groups["b"].Broadcast(payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "all delivered", func() bool { return atC.Load() == total })
	waitFor(t, 30*time.Second, "all acknowledged", func() bool {
		return groups["b"].req.Outstanding() == 0 && groups["seq"].inner.Outstanding() == 0
	})
	// stateSize reads the groups without their locks: stop their timers
	// (a tick retires log chunks) and let what is in flight land first.
	for _, g := range groups {
		_ = g.Close()
	}
	net.Settle()

	// A queue's backing array keeps the capacity of the deepest it has
	// been, which is the traffic in flight: the window, plus what awaits
	// a batched acknowledgement. The sequencer has half a dozen such
	// queues (two links out, two release lists and their spares), a few
	// hundred deep each: thousands in sum, not 20 000.
	const bound = total / 4
	for _, name := range names {
		g := groups[name]
		for what, link := range map[string]*Reliable{"request": g.req, "broadcast": g.inner} {
			if queued, _, ahead, held := linkState(link); queued != 0 || ahead != 0 || held != 0 {
				t.Errorf("%s, %s link at rest: %d frames queued, %d held in %d runs; want none", name, what, queued, held, ahead)
			}
		}
		if n := stateSize(reflect.ValueOf(g), map[unsafe.Pointer]bool{}); n > bound {
			t.Errorf("%s holds %d entries after %d messages, want at most %d", name, n, total, bound)
		}
	}
}

func TestCertifiedDeliversAfterSubscriberRestart(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub := newTestNode(t, net, "sub")

	pubLog := durable.NewMemOutbox()
	gp := NewCertified(pub.mux, "cls", pubLog, durable.NewMemInbox(), pub.record, fastOpts())
	defer gp.Close()
	subDedup := durable.NewMemInbox() // survives the "crash" (stable storage)
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), subDedup, sub.record, fastOpts())
	gs.SetDurableIDs([]string{"durable-sub"})
	defer gs.Close()

	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "durable-sub", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}

	// Deliver one message normally.
	_ = gp.Broadcast([]byte("before-crash"))
	waitFor(t, 5*time.Second, "first delivery", func() bool { return sub.count() == 1 })

	// Subscriber crashes; publisher keeps publishing.
	net.Crash("sub")
	_ = gp.Broadcast([]byte("while-down-1"))
	_ = gp.Broadcast([]byte("while-down-2"))
	time.Sleep(30 * time.Millisecond) // retransmissions all dropped

	// Subscriber restarts (same address, same durable identity and
	// dedup store).
	net.Restart("sub")
	waitFor(t, 10*time.Second, "redelivery after restart", func() bool { return sub.count() == 3 })

	got := sub.payloads()
	want := map[string]bool{"before-crash": true, "while-down-1": true, "while-down-2": true}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected payload %q", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("missing payloads: %v", want)
	}

	// Eventually all acks arrive, each retiring what it completes.
	waitFor(t, 10*time.Second, "outbox emptied", func() bool { return pubLog.Len() == 0 })
}

func TestCertifiedExactlyOnceDespiteAckLoss(t *testing.T) {
	// Heavy loss: data and acks are dropped; redelivery hammers the
	// subscriber, but the dedup set must keep delivery exactly-once.
	net := netsim.New(netsim.Config{LossRate: 0.5, Seed: 23})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub := newTestNode(t, net, "sub")
	gp := NewCertified(pub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), pub.record, fastOpts())
	defer gp.Close()
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, fastOpts())
	defer gs.Close()
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "sub", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}

	const msgs = 10
	for i := 0; i < msgs; i++ {
		_ = gp.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	waitFor(t, 15*time.Second, "all delivered", func() bool { return sub.count() >= msgs })
	time.Sleep(50 * time.Millisecond) // let redeliveries land
	if sub.count() != msgs {
		t.Errorf("delivered %d, want exactly %d", sub.count(), msgs)
	}
}

func TestCertifiedSubscriberMovesAddress(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub1 := newTestNode(t, net, "sub1")

	gp := NewCertified(pub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), pub.record, fastOpts())
	defer gp.Close()
	dedup := durable.NewMemInbox()
	gs1 := NewCertified(sub1.mux, "cls", durable.NewMemOutbox(), dedup, sub1.record, fastOpts())
	gs1.SetDurableIDs([]string{"tenant-7"})
	_ = gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant-7", Addr: "sub1"}})

	_ = gp.Broadcast([]byte("m1"))
	waitFor(t, 5*time.Second, "m1 at sub1", func() bool { return sub1.count() == 1 })

	// Subscriber goes away and reappears at a different address with
	// the same durable identity (paper §3.4.1 activate(id)).
	_ = gs1.Close()
	net.Crash("sub1")
	_ = gp.Broadcast([]byte("m2"))

	sub2 := newTestNode(t, net, "sub2")
	gs2 := NewCertified(sub2.mux, "cls", durable.NewMemOutbox(), dedup, sub2.record, fastOpts())
	gs2.SetDurableIDs([]string{"tenant-7"})
	defer gs2.Close()
	_ = gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant-7", Addr: "sub2"}})

	waitFor(t, 10*time.Second, "m2 at new address", func() bool { return sub2.count() == 1 })
	if got := sub2.payloads(); got[0] != "m2" {
		t.Errorf("sub2 got %v; m1 was already delivered under this identity", got)
	}
}

func TestBroadcastOnClosedGroupFails(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	gr := NewReliable(a.mux, "r", a.record, fastOpts())
	_ = gr.Close()
	if err := gr.Broadcast([]byte("x")); err == nil {
		t.Error("reliable: broadcast after close should fail")
	}
	gb := NewBestEffort(a.mux, "b", a.record)
	_ = gb.Close()
	if err := gb.Broadcast([]byte("x")); err == nil {
		t.Error("besteffort: broadcast after close should fail")
	}
}

func TestHandlerMayBroadcast(t *testing.T) {
	// A deliver handler publishing a follow-up (the paper's "obvents
	// publishing obvents", §5.3) must not deadlock.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")

	var gb *Reliable
	gb = NewReliable(b.mux, "cls", func(origin string, payload []byte) {
		b.record(origin, payload)
		if string(payload) == "ping" {
			_ = gb.Broadcast([]byte("pong"))
		}
	}, fastOpts())
	ga := NewReliable(a.mux, "cls", a.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	gb.SetMembers([]string{"a", "b"})

	_ = ga.Broadcast([]byte("ping"))
	waitFor(t, 5*time.Second, "pong back at a", func() bool {
		for _, p := range a.payloads() {
			if p == "pong" {
				return true
			}
		}
		return false
	})
}
