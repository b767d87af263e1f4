package dace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/clock"
	"govents/internal/core"
	"govents/internal/durable"
	"govents/internal/filter"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// Shared obvent hierarchy (paper Figures 1/2).

type StockObvent struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

func (s StockObvent) GetCompany() string { return s.Company }
func (s StockObvent) GetPrice() float64  { return s.Price }

type StockQuote struct {
	StockObvent
}

type orderedTick struct {
	obvent.Base
	obvent.TotalOrderBase
	N int
}

type fifoTick struct {
	obvent.Base
	obvent.FIFOOrderBase
	N int
}

type causalMsg struct {
	obvent.Base
	obvent.CausalOrderBase
	Text string
}

type certTrade struct {
	obvent.Base
	obvent.CertifiedBase
	N int
}

// testNode bundles a DACE node with its engine.
type testNode struct {
	node   *Node
	engine *core.Engine
}

func registerAll(reg *obvent.Registry) {
	reg.MustRegister(StockObvent{})
	reg.MustRegister(StockQuote{})
	reg.MustRegister(orderedTick{})
	reg.MustRegister(fifoTick{})
	reg.MustRegister(causalMsg{})
	reg.MustRegister(certTrade{})
	reg.MustRegister(relPing{}) // defined in prune_test.go
}

func fastCfg() Config {
	return Config{Multicast: multicast.Options{RetransmitInterval: 5 * time.Millisecond}}
}

// fakeCfg is fastCfg on a fake clock, which the test moves.
func fakeCfg() (Config, *clock.Fake) {
	cfg, clk := fastCfg(), clock.NewFake(time.Unix(0, 0))
	cfg.Clock = clk
	return cfg, clk
}

// newDomain builds n connected nodes with engines over a fresh netsim.
func newDomain(t *testing.T, net *netsim.Network, count int, cfg Config, opts ...core.Option) []*testNode {
	t.Helper()
	nodes := make([]*testNode, count)
	addrs := make([]string, count)
	for i := range nodes {
		addr := fmt.Sprintf("node-%d", i)
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		dn := NewNode(ep, reg, cfg)
		eng := core.NewEngine(addr, dn, append([]core.Option{core.WithRegistry(reg)}, opts...)...)
		nodes[i] = &testNode{node: dn, engine: eng}
		addrs[i] = addr
	}
	for _, n := range nodes {
		n.node.SetPeers(addrs)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.engine.Close()
		}
	})
	return nodes
}

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

// waitAds waits until node knows at least n remote subscriptions.
func waitAds(t *testing.T, n *Node, want int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("%d remote subscriptions at %s", want, n.Addr()),
		func() bool { return n.RemoteSubscriptionCount() >= want })
}

// waitRouted waits until n's routing table holds, for class, exactly the
// subscriptions in want, keyed {node address, Subscription.ID()}. It
// converges on identity, not count: churn that deactivates one
// subscription and activates another leaves the count where it was
// before either advertisement has landed.
func waitRouted(t *testing.T, n *Node, class, what string, want map[[2]string]bool) {
	t.Helper()
	waitFor(t, 10*time.Second, what, func() bool {
		seen, ok := 0, true
		n.routes.ForEachConforming(class, func(node string, info core.SubscriptionInfo) {
			seen++
			ok = ok && want[[2]string{node, info.ID}]
		})
		return ok && seen == len(want)
	})
}

// waitDrained waits until every engine has taken into dispatch every
// envelope it was handed. Call it after net.Settle(), which returns once
// everything received has reached a lane (certified deliveries paused
// for a replay excepted): a queued envelope is matched against the
// subscription table current when its lane dispatches it (doc.go,
// "Activation is not a barrier"), and a lane counts an envelope in
// EventsIn only once it has read that table, so no later change can
// reach what this wait saw counted.
func waitDrained(t *testing.T, nodes []*testNode) {
	t.Helper()
	waitFor(t, 10*time.Second, "dispatch lanes drained", func() bool {
		for _, n := range nodes {
			var enqueued uint64
			for _, l := range n.engine.LaneStats() {
				if l.Queued != 0 {
					return false
				}
				enqueued += l.Enqueued
			}
			if enqueued != n.engine.Stats().EventsIn {
				return false
			}
		}
		return true
	})
}

func TestCrossNodeDelivery(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())
	pub, subA, subB := nodes[0], nodes[1], nodes[2]

	var gotA, gotB atomic.Int32
	sa, err := core.Subscribe(subA.engine, nil, func(q StockQuote) { gotA.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = sa.Activate()
	sb, err := core.Subscribe(subB.engine, nil, func(q StockQuote) { gotB.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = sb.Activate()
	waitAds(t, pub.node, 2)

	if err := core.Publish(pub.engine, StockQuote{StockObvent{Company: "Telco", Price: 80}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "cross-node delivery", func() bool {
		return gotA.Load() == 1 && gotB.Load() == 1
	})
}

func TestCrossNodeSubtypeMatching(t *testing.T) {
	// Figure 1 across processes: a node subscribing to the base type
	// receives subtype instances published elsewhere.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	s, err := core.Subscribe(sub.engine, nil, func(o StockObvent) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)

	_ = core.Publish(pub.engine, StockQuote{StockObvent{Company: "X"}})
	_ = core.Publish(pub.engine, StockObvent{Company: "Y"})
	waitFor(t, 5*time.Second, "subtype delivery", func() bool { return got.Load() == 2 })
}

func TestRemoteFilterAppliedAtPublisherSavesTraffic(t *testing.T) {
	run := func(placement Placement) int64 {
		net := netsim.New(netsim.Config{})
		defer net.Close()
		cfg := fastCfg()
		cfg.Placement = placement
		nodes := newDomain(t, net, 2, cfg)
		pub, sub := nodes[0], nodes[1]

		var got atomic.Int32
		f := filter.Path("GetPrice").Lt(filter.Float(100))
		s, err := core.Subscribe(sub.engine, f, func(q StockQuote) { got.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Activate()
		waitAds(t, pub.node, 1)
		net.Settle()
		net.ResetStats()

		// 100 quotes, only 10 match the filter.
		for i := 0; i < 100; i++ {
			price := 1000.0
			if i%10 == 0 {
				price = 50
			}
			_ = core.Publish(pub.engine, StockQuote{StockObvent{Company: "T", Price: price}})
		}
		waitFor(t, 10*time.Second, "matching deliveries", func() bool { return got.Load() == 10 })
		time.Sleep(20 * time.Millisecond)
		if got.Load() != 10 {
			t.Fatalf("placement %v delivered %d, want 10", placement, got.Load())
		}
		net.Settle()
		sent, _, _, _ := net.Stats()
		return sent
	}

	atSub := run(AtSubscriber)
	atPub := run(AtPublisher)
	// Publisher-side filtering must send far fewer messages (10 data
	// messages + acks instead of 100 + acks).
	if atPub >= atSub/2 {
		t.Errorf("publisher-side filtering sent %d messages vs %d at subscriber; expected a large saving", atPub, atSub)
	}
}

func TestTotalOrderAcrossNodes(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 2 * time.Millisecond, Seed: 7})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())

	type rec struct {
		mu  sync.Mutex
		seq []int
	}
	recs := make([]*rec, len(nodes))
	for i, n := range nodes {
		r := &rec{}
		recs[i] = r
		s, err := core.Subscribe(n.engine, nil, func(o orderedTick) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.seq = append(r.seq, o.N)
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Activate()
	}
	for _, n := range nodes {
		waitAds(t, n.node, 2)
	}

	// Two publishers interleave.
	const per = 10
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = core.Publish(nodes[p].engine, orderedTick{N: p*1000 + i})
			}
		}(p)
	}
	wg.Wait()

	total := 2 * per
	waitFor(t, 15*time.Second, "total-order delivery", func() bool {
		for _, r := range recs {
			r.mu.Lock()
			n := len(r.seq)
			r.mu.Unlock()
			if n != total {
				return false
			}
		}
		return true
	})
	ref := recs[0].seq
	for i, r := range recs[1:] {
		for j := range ref {
			if r.seq[j] != ref[j] {
				t.Fatalf("node %d delivered %v, node 0 delivered %v: total order violated", i+1, r.seq, ref)
			}
		}
	}
}

func TestFIFOOrderAcrossNodes(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.2, MaxLatency: 2 * time.Millisecond, Seed: 13})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	var mu sync.Mutex
	var seq []int
	s, err := core.Subscribe(sub.engine, nil, func(o fifoTick) {
		mu.Lock()
		defer mu.Unlock()
		seq = append(seq, o.N)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)

	const msgs = 25
	for i := 0; i < msgs; i++ {
		_ = core.Publish(pub.engine, fifoTick{N: i})
	}
	waitFor(t, 15*time.Second, "fifo delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seq) == msgs
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range seq {
		if n != i {
			t.Fatalf("position %d = %d: publisher order violated (%v)", i, n, seq)
		}
	}
}

func TestCausalOrderAcrossNodes(t *testing.T) {
	// a publishes "cause"; b replies "effect" from inside the handler;
	// c must deliver cause before effect.
	net := netsim.New(netsim.Config{MaxLatency: 3 * time.Millisecond, Seed: 3})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())
	a, b, c := nodes[0], nodes[1], nodes[2]

	sb, err := core.Subscribe(b.engine, nil, func(m causalMsg) {
		if m.Text == "cause" {
			_ = core.Publish(b.engine, causalMsg{Text: "effect"})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sb.Activate()

	var mu sync.Mutex
	var order []string
	sc, err := core.Subscribe(c.engine, nil, func(m causalMsg) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, m.Text)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sc.Activate()
	// a must know both subscriptions (b's and c's); b must know c's.
	waitAds(t, a.node, 2)
	waitAds(t, b.node, 1)

	_ = core.Publish(a.engine, causalMsg{Text: "cause"})
	waitFor(t, 10*time.Second, "both at c", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "cause" || order[1] != "effect" {
		t.Fatalf("order = %v: causal order violated", order)
	}
}

func TestCertifiedSurvivesSubscriberCrash(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()

	// Each node's stable storage: what it would still have after a crash.
	stable := func() *durable.Manager {
		m, err := durable.Open(durable.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		return m
	}
	cfgPub := fastCfg()
	cfgPub.Durable = stable()
	cfgSub := fastCfg()
	cfgSub.Durable = stable()

	// Build the two nodes with distinct configs.
	epPub, _ := net.NewEndpoint("pub")
	regPub := obvent.NewRegistry()
	registerAll(regPub)
	dnPub := NewNode(epPub, regPub, cfgPub)
	engPub := core.NewEngine("pub", dnPub, core.WithRegistry(regPub))
	defer engPub.Close()

	epSub, _ := net.NewEndpoint("sub")
	regSub := obvent.NewRegistry()
	registerAll(regSub)
	dnSub := NewNode(epSub, regSub, cfgSub)
	engSub := core.NewEngine("sub", dnSub, core.WithRegistry(regSub))
	defer engSub.Close()

	peers := []string{"pub", "sub"}
	dnPub.SetPeers(peers)
	dnSub.SetPeers(peers)

	var got atomic.Int32
	s, err := core.Subscribe(engSub, nil, func(tr certTrade) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateDurable("durable-trader"); err != nil {
		t.Fatal(err)
	}
	waitAds(t, dnPub, 1)

	// Normal delivery first.
	_ = core.Publish(engPub, certTrade{N: 1})
	waitFor(t, 5*time.Second, "first certified delivery", func() bool { return got.Load() == 1 })

	// Subscriber crashes; the publisher keeps publishing.
	net.Crash("sub")
	_ = core.Publish(engPub, certTrade{N: 2})
	_ = core.Publish(engPub, certTrade{N: 3})
	time.Sleep(30 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("delivered %d while crashed", got.Load())
	}

	// Subscriber restarts; pending certified obvents are redelivered
	// (its durable identity and staging inbox survived on stable storage).
	net.Restart("sub")
	waitFor(t, 10*time.Second, "redelivery after restart", func() bool { return got.Load() == 3 })
	time.Sleep(50 * time.Millisecond)
	if got.Load() != 3 {
		t.Fatalf("delivered %d, want exactly 3 (dedup)", got.Load())
	}
}

func TestLateJoinerLearnsSubscriptions(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	early := nodes[1]

	var got atomic.Int32
	s, err := core.Subscribe(early.engine, nil, func(q StockQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()

	// A third node joins after the subscription was advertised.
	ep, err := net.NewEndpoint("node-late")
	if err != nil {
		t.Fatal(err)
	}
	reg := obvent.NewRegistry()
	registerAll(reg)
	late := NewNode(ep, reg, fastCfg())
	lateEng := core.NewEngine("node-late", late, core.WithRegistry(reg))
	defer lateEng.Close()

	all := []string{"node-0", "node-1", "node-late"}
	late.SetPeers(all)
	nodes[0].node.SetPeers(all)
	nodes[1].node.SetPeers(all)

	// Anti-entropy: the late node must learn node-1's subscription.
	waitAds(t, late, 1)

	_ = core.Publish(lateEng, StockQuote{StockObvent{Company: "late"}})
	waitFor(t, 5*time.Second, "delivery from late publisher", func() bool { return got.Load() == 1 })
}

func TestSpaceDecoupling(t *testing.T) {
	// Participants do not know each other (paper §1.2): the publisher
	// node's engine API never references subscriber addresses.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 4, fastCfg())

	var total atomic.Int32
	for _, n := range nodes[1:] {
		s, err := core.Subscribe(n.engine, nil, func(q StockQuote) { total.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Activate()
	}
	waitAds(t, nodes[0].node, 3)
	_ = core.Publish(nodes[0].engine, StockQuote{StockObvent{Company: "anon"}})
	waitFor(t, 5*time.Second, "fanout to anonymous subscribers", func() bool { return total.Load() == 3 })
}

func TestUnsubscribeStopsCrossNodeTraffic(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	s, err := core.Subscribe(sub.engine, nil, func(q StockQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)
	_ = core.Publish(pub.engine, StockQuote{})
	waitFor(t, 5*time.Second, "first delivery", func() bool { return got.Load() == 1 })

	if err := s.Deactivate(); err != nil {
		t.Fatal(err)
	}
	// Wait for the unsubscription to reach the publisher.
	waitFor(t, 5*time.Second, "unsubscribe propagated", func() bool {
		return pub.node.RemoteSubscriptionCount() == 0
	})
	net.Settle()
	net.ResetStats()
	_ = core.Publish(pub.engine, StockQuote{})
	net.Settle()
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("delivered %d after unsubscribe", got.Load())
	}
	// With no subscribers anywhere, nothing is put on the wire for
	// best-effort/reliable classes.
	sent, _, _, _ := net.Stats()
	if sent != 0 {
		t.Errorf("%d messages sent with zero subscriptions", sent)
	}
}
