package dace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/durable"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// heldControl loses every control frame its endpoint sends while it
// holds them; the control link resends them once it lets go.
type heldControl struct {
	netsim.Transport
	holding atomic.Bool
}

func (h *heldControl) Send(to string, frame []byte) error {
	if key, ok := frameKey(frame); ok && key == streamKey("dace/ctrl") && h.holding.Load() {
		return nil
	}
	return h.Transport.Send(to, frame)
}

// TestCertifiedWaitsForAnUnheardMember: certified events published
// before any advertisement are owed to every subscriber that turns out
// to be there, and an entry must not retire once the identities known
// so far have acknowledged it while a member of the view is still
// unheard. node-2's advertisement is held until node-1, heard from
// first, has acknowledged both events at the publisher; node-2 must
// still get them.
func TestCertifiedWaitsForAnUnheardMember(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	mgr, err := durable.Open(durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	addrs := []string{"node-0", "node-1", "node-2"}
	held := &heldControl{}
	held.holding.Store(true)
	nodes := make([]*testNode, len(addrs))
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		var tr netsim.Transport = ep
		cfg := fastCfg()
		switch i {
		case 0:
			cfg.Durable = mgr // the publisher's outbox, to read what it owes
		case 2:
			held.Transport, tr = ep, held
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		dn := NewNode(tr, reg, cfg)
		nodes[i] = &testNode{node: dn, engine: core.NewEngine(addr, dn, core.WithRegistry(reg))}
		defer nodes[i].engine.Close()
	}
	var mu sync.Mutex
	got := make(map[string]bool) // "node/n"
	for i, sn := range nodes[1:] {
		s, err := core.Subscribe(sn.engine, nil, func(c certTrade) {
			mu.Lock()
			got[fmt.Sprintf("%s/%d", addrs[i+1], c.N)] = true
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	delivered := func(node string) bool {
		mu.Lock()
		defer mu.Unlock()
		return got[node+"/0"] && got[node+"/1"]
	}

	// The publisher has its view and has heard from nobody.
	pub := nodes[0]
	pub.node.SetPeers(addrs)
	for n := range 2 {
		if err := core.Publish(pub.engine, certTrade{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sn := range nodes[1:] {
		sn.node.SetPeers(addrs)
	}
	ob, err := mgr.OutboxFor(className[certTrade]())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "node-1's acknowledgement of both events at the publisher", func() bool {
		owed, err := ob.Pending("node-1")
		return err == nil && len(owed) == 0 && delivered("node-1")
	})
	held.holding.Store(false)
	waitFor(t, 5*time.Second, "both events at node-2", func() bool { return delivered("node-2") })
}

// TestCertifiedStopsWaitingForASilentMember: a member of the view that
// never speaks (down, or no dace node) holds certified entries back for
// awaitGrace, not for ever. The publisher's view names a ghost that is
// never started; the events the subscriber has acknowledged stay in the
// outbox while the ghost may still come, and retire once it has been
// silent for the grace.
func TestCertifiedStopsWaitingForASilentMember(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	mgr, err := durable.Open(durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg, clk := fakeCfg()
	addrs := []string{"pub", "sub", "ghost"}
	nodes := make([]*testNode, 2)
	for i, addr := range addrs[:2] {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfg
		if i == 0 {
			cfg.Durable = mgr
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		dn := NewNode(ep, reg, cfg)
		nodes[i] = &testNode{node: dn, engine: core.NewEngine(addr, dn, core.WithRegistry(reg))}
		defer nodes[i].engine.Close()
	}
	pub, sub := nodes[0], nodes[1]
	var got atomic.Int64
	s, err := core.Subscribe(sub.engine, nil, func(certTrade) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.node.SetPeers(addrs)
	}
	waitAds(t, pub.node, 1)
	for n := range 2 {
		if err := core.Publish(pub.engine, certTrade{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	ob, err := mgr.OutboxFor(className[certTrade]())
	if err != nil {
		t.Fatal(err)
	}
	// The acknowledgement timers run on the fake clock: move it a
	// timer period at a time, far less than the grace in all.
	period := cfg.Multicast.RetransmitInterval / 4
	waitFor(t, 5*time.Second, "the subscriber's acknowledgement of both events", func() bool {
		clk.Advance(period)
		net.Settle()
		owed, err := ob.Pending("sub")
		return err == nil && len(owed) == 0 && got.Load() == 2
	})
	if n := ob.Len(); n != 2 {
		t.Fatalf("%d entries held while the ghost may still come, want 2", n)
	}
	clk.Advance(awaitGrace)
	waitFor(t, 5*time.Second, "the held entries to retire", func() bool { return ob.Len() == 0 })
}

// TestViewExpiryBesideCertifiedRefresh: an AdTTL expiry rewrites the
// view while the certified groups read it for theirs (run with -race).
func TestViewExpiryBesideCertifiedRefresh(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	n := newDomain(t, net, 1, fastCfg())[0].node
	n.group("cert", className[certTrade]())
	view := []string{n.Addr(), "gone-0", "gone-1", "gone-2"}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 100 {
			n.SetPeers(view)
			n.dropPeers(view[1:3])
		}
	}()
	go func() {
		defer wg.Done()
		for range 100 {
			n.refreshCertSubscribers()
		}
	}()
	wg.Wait()
}
