package dace

import (
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// TestAdTTLExpiresDeadNodeWithoutMembershipChange pins the ad-stream GC
// end to end: with AdTTL set, a node that dies (closes) without any
// SetPeers update stops pinning routing-table entries at its peers once
// it has been silent past the TTL — while live nodes, kept fresh by
// heartbeats, are never expired. The nodes share a fake clock, moved a
// heartbeat period at a time with the network settled after each.
func TestAdTTLExpiresDeadNodeWithoutMembershipChange(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()

	const ttl = 80 * time.Millisecond
	cfg, clk := fakeCfg()
	cfg.AdTTL = ttl
	heartbeat := func() {
		clk.Advance(ttl / 3)
		net.Settle()
	}

	mk := func(addr string) *testNode {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		dn := NewNode(ep, reg, cfg)
		eng := core.NewEngine(addr, dn, core.WithRegistry(reg))
		return &testNode{node: dn, engine: eng}
	}
	pub, subA, subB := mk("pub"), mk("sub-a"), mk("sub-b")
	peers := []string{"pub", "sub-a", "sub-b"}
	for _, n := range []*testNode{pub, subA, subB} {
		n.node.SetPeers(peers)
	}
	defer pub.engine.Close()
	defer subB.engine.Close()

	for _, n := range []*testNode{subA, subB} {
		sub, err := core.Subscribe(n.engine, nil, func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	waitAds(t, pub.node, 2)

	// sub-a crashes: no SetPeers update, no farewell ad — it just goes
	// silent.
	net.Crash("sub-a")
	_ = subA.engine.Close()

	// The publisher's routing table drops sub-a's entries after the
	// TTL; sub-b keeps heartbeating and survives.
	for i := 0; pub.node.RoutingStats().NodesExpired < 1; i++ {
		if i == 6 { // two TTLs
			t.Fatal("dead node not expired from the routing table")
		}
		heartbeat()
	}
	if got := pub.node.RemoteSubscriptionCount(); got != 1 {
		t.Fatalf("remote subs after expiry = %d, want 1", got)
	}

	// Well past several TTLs, the live subscriber is still known.
	for range 12 {
		heartbeat()
	}
	if got := pub.node.RemoteSubscriptionCount(); got != 1 {
		t.Fatalf("live heartbeating subscriber expired: remote subs = %d, want 1", got)
	}
}

// dropFirst loses the first frame its endpoint sends on a stream.
type dropFirst struct {
	netsim.Transport
	stream  uint32
	dropped atomic.Bool
}

func (d *dropFirst) Send(to string, frame []byte) error {
	if key, ok := frameKey(frame); ok && key == d.stream && d.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return d.Transport.Send(to, frame)
}

// TestFakeClockRetransmitsAndExpires drives a retransmission and an
// AdTTL expiry on a fake clock, with no sleep: the first FIFO frame to a
// subscriber is lost and arrives as the retransmission one whole
// RetransmitInterval (and at most one timer period more) after it was
// sent, and the subscriber, once dead, is expired one TTL (and at most a
// heartbeat period more) after it last advertised.
func TestFakeClockRetransmitsAndExpires(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg, clk := fakeCfg()
	cfg.AdTTL = 60 * time.Millisecond
	open := func(addr string, wrap func(netsim.Transport) netsim.Transport) *testNode {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		reg.MustRegister(padFIFO{})
		dn := NewNode(wrap(ep), reg, cfg)
		eng := core.NewEngine(addr, dn, core.WithRegistry(reg))
		t.Cleanup(func() { _ = eng.Close() })
		return &testNode{node: dn, engine: eng}
	}
	pub := open("pub", func(ep netsim.Transport) netsim.Transport {
		return &dropFirst{Transport: ep, stream: streamKey(streamName("fifo", className[padFIFO]()))}
	})
	sub := open("sub", func(ep netsim.Transport) netsim.Transport { return ep })
	for _, n := range []*testNode{pub, sub} {
		n.node.SetPeers([]string{"pub", "sub"})
	}
	var got atomic.Int64
	s, err := core.Subscribe(sub.engine, nil, func(padFIFO) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(); err != nil {
		t.Fatal(err)
	}
	waitAds(t, pub.node, 1)

	if err := core.Publish(pub.engine, padFIFO{Pad: []byte("lost once")}); err != nil {
		t.Fatal(err)
	}
	link := pub.node.group("fifo", className[padFIFO]()).(*multicast.FIFO)
	period := cfg.Multicast.RetransmitInterval / 4
	var waited time.Duration
	for net.Settle(); link.Outstanding() != 0; net.Settle() {
		if waited > cfg.Multicast.RetransmitInterval+period {
			t.Fatalf("no retransmission %v after the frame was lost", waited)
		}
		clk.Advance(period)
		waited += period
	}
	if waited < cfg.Multicast.RetransmitInterval {
		t.Errorf("the lost frame was resent after %v, before a whole RetransmitInterval", waited)
	}
	// The handler runs on its lane's goroutine.
	waitFor(t, 5*time.Second, "one delivery", func() bool { return got.Load() == 1 })

	net.Crash("sub")
	heartbeat := cfg.AdTTL / 3
	for waited = 0; pub.node.RoutingStats().NodesExpired == 0; net.Settle() {
		if waited > cfg.AdTTL+heartbeat {
			t.Fatalf("the dead subscriber is not expired %v after it crashed", waited)
		}
		clk.Advance(heartbeat)
		waited += heartbeat
	}
	if got := pub.node.RemoteSubscriptionCount(); got != 0 {
		t.Errorf("%d remote subscriptions after the subscriber expired, want 0", got)
	}
}
