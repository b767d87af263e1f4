package dace

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/codec"
	"govents/internal/core"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// linkRecord is what node from seals for a link of o's class, proto's:
// the publisher's envelope, named testName, class and publisher left
// out.
func linkRecord(t *testing.T, from *Node, o obvent.Obvent, proto string) (*codec.Envelope, []byte) {
	t.Helper()
	env, err := from.cdc.EncodeFrom(from.Addr(), o)
	if err != nil {
		t.Fatal(err)
	}
	env.Name = testName
	record, err := from.seal(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	return env, record
}

// TestReceivedEnvelopeAllocs: a data frame is decoded into its channel's
// scratch, and a link-form FIFO frame names its event by numbers, so a
// frame handed to a node costs nothing (it read 2.0 allocations while
// each frame got an envelope of its own, and 1.0 while the receiver
// spelled the event's ID out as text). The sink sees the envelope as
// published, its incarnation the link's, and the scratch is zero once
// the sink has returned.
func TestReceivedEnvelopeAllocs(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes, _ := bareNodes(t, net, 1, fastCfg(), nil)
	n := nodes[0]
	want, record := linkRecord(t, n, fifoTick{N: 3}, "fifo")
	var seen codec.Envelope
	n.SetSink(func(env *codec.Envelope) { seen = *env })
	var scratch codec.Envelope
	got := allocs.PerRun(200, func() { n.onData(want.Type, n.Addr(), want.Name.Inc, record, &scratch) })
	t.Logf("%.2f allocations per frame", got)
	if got > 0.05 && !raceEnabled {
		t.Errorf("a received FIFO frame costs %.2f allocations, want 0", got)
	}
	if !sameFields(&seen, want) {
		t.Errorf("the sink saw\n%+v, want\n%+v", seen, want)
	}
	if !reflect.ValueOf(scratch).IsZero() {
		t.Errorf("the scratch holds %+v after the sink returned, want zero", scratch)
	}
}

// TestPlannerDecodesIntoScratch: the sequencer's planner decodes a
// stamped record into its pooled scratch, which goes back zeroed. One
// call costs the Send and its destinations (2 allocations; it read 4
// while the planner decoded into an envelope of its own, and 3 while it
// spelled the event's ID out as text).
func TestPlannerDecodesIntoScratch(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	class := className[orderedTick]()
	nodes, _ := bareNodes(t, net, 2, fastCfg(), []string{class})
	_, record := linkRecord(t, nodes[1], orderedTick{N: 4}, "total")
	plan := nodes[0].plannerFor(class)
	sends, ok := plan(record)
	if !ok || len(sends) != 1 || len(sends[0].Dests) != 2 {
		t.Fatalf("the planner routed %+v, %v; want one Send to both nodes", sends, ok)
	}
	got := allocs.PerRun(200, func() { plan(record) })
	t.Logf("%.2f allocations per planner call", got)
	if got > 2 && !raceEnabled {
		t.Errorf("a planner call costs %.2f allocations, want <= 2", got)
	}
	buf := nodes[0].destBuf.Get().(*destScratch)
	defer nodes[0].destBuf.Put(buf)
	if !reflect.ValueOf(buf.env).IsZero() {
		t.Errorf("a pooled scratch holds %+v, want zero", buf.env)
	}
}

// gatedTransport sends nothing once shut.
type gatedTransport struct {
	netsim.Transport
	shut atomic.Bool
}

func (g *gatedTransport) Send(to string, frame []byte) error {
	if g.shut.Load() {
		return nil
	}
	return g.Transport.Send(to, frame)
}

// TestRemoteOnlyPublishRecyclesItsBuffer pins the publisher's side of a
// routed publication of an unreliable class that goes to another node
// only: nothing keeps its record, so the pooled envelope keeps its
// payload buffer for the next Publish, and a steady-state Publish of an
// event already in an interface costs nothing (it read 1.06 allocations
// while each Publish encoded into a buffer of its own, and 0.06 while it
// minted a share of a random ID block). The frames stop at the publisher's transport, so
// that nothing the network or the subscriber does is counted.
func TestRemoteOnlyPublishRecyclesItsBuffer(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	addrs := []string{"node-0", "node-1"}
	nodes := make([]*Node, len(addrs))
	var gate *gatedTransport
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		var tr netsim.Transport = ep
		if i == 0 {
			gate = &gatedTransport{Transport: ep}
			tr = gate
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		nodes[i] = NewNode(tr, reg, fastCfg())
		t.Cleanup(func() { _ = nodes[i].Close() })
	}
	eng := core.NewEngine(addrs[0], nodes[0], core.WithRegistry(nodes[0].cdc.Registry()))
	t.Cleanup(func() { _ = eng.Close() })
	nodes[1].SetSink(func(*codec.Envelope) {})
	for _, n := range nodes {
		n.SetPeers(addrs)
	}
	if err := nodes[1].SubscriptionChanged([]core.SubscriptionInfo{{ID: "node-1/sub", TypeName: className[StockObvent]()}}); err != nil {
		t.Fatal(err)
	}
	waitAds(t, nodes[0], 1)
	gate.shut.Store(true)

	var o obvent.Obvent = StockObvent{Company: "Telco", Price: 80, Amount: 10}
	got := allocs.PerRun(1000, func() {
		if err := eng.Publish(o); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.3f allocations per Publish", got)
	if got > 0.05 && !raceEnabled {
		t.Errorf("a remote-only Publish costs %.3f allocations, want 0", got)
	}
}

// TestRecycleOnlyWhatNobodyKept: a payload buffer is reused by the next
// publication, so whatever keeps a record copies it. In three cases
// something keeps the record past Publish: a local domain's lane, the
// lane of a publisher that subscribes too (its own node is a
// destination) and a certified outbox. In each, with every handler's one
// lane wedged on a first event while n more are published behind it,
// each handler sees every event once, as it was published.
func TestRecycleOnlyWhatNobodyKept(t *testing.T) {
	const n = 32
	// seesOwnEvents subscribes a handler at each engine, waits until the
	// publisher is ready, publishes events 0 to n, the first of which
	// wedges every handler until the rest are published, and checks what
	// each handler saw.
	seesOwnEvents := func(t *testing.T, engs []*core.Engine, subscribe func(*core.Engine, func(int)) error, ready func(), publish func(int) error) {
		t.Helper()
		wedge := make(chan struct{})
		started := make(chan struct{}, len(engs))
		got := make([]chan int, len(engs))
		for i, e := range engs {
			got[i] = make(chan int, n+1)
			if err := subscribe(e, func(k int) {
				if k == 0 {
					started <- struct{}{}
					<-wedge
				}
				got[i] <- k
			}); err != nil {
				t.Fatal(err)
			}
		}
		ready()
		for i := 0; i <= n; i++ {
			if err := publish(i); err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				continue
			}
			for range engs {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Fatal("the first event reached no handler")
				}
			}
		}
		close(wedge)
		for i := range engs {
			seen := make(map[int]int)
			for range n + 1 {
				select {
				case k := <-got[i]:
					seen[k]++
				case <-time.After(5 * time.Second):
					t.Fatalf("handler %d saw %d of %d events: %v", i, len(seen), n+1, seen)
				}
			}
			for k := 0; k <= n; k++ {
				if seen[k] != 1 {
					t.Fatalf("handler %d saw event %d %d times; it saw %v", i, k, seen[k], seen)
				}
			}
		}
	}
	fifo := func(e *core.Engine, h func(int)) error {
		s, err := core.Subscribe(e, nil, func(tk fifoTick) { h(tk.N) })
		if err == nil {
			err = s.Activate()
		}
		return err
	}

	t.Run("local domain", func(t *testing.T) {
		reg := obvent.NewRegistry()
		registerAll(reg)
		eng := core.NewEngine("local", core.NewLocal(), core.WithRegistry(reg), core.WithDispatchLanes(1))
		t.Cleanup(func() { _ = eng.Close() })
		seesOwnEvents(t, []*core.Engine{eng}, fifo, func() {}, func(i int) error { return eng.Publish(fifoTick{N: i}) })
	})
	t.Run("publisher subscribes", func(t *testing.T) {
		net := netsim.New(netsim.Config{})
		defer net.Close()
		nodes := newDomain(t, net, 2, fastCfg(), core.WithDispatchLanes(1))
		seesOwnEvents(t, []*core.Engine{nodes[0].engine, nodes[1].engine}, fifo,
			func() { waitAds(t, nodes[0].node, 1) },
			func(i int) error { return nodes[0].engine.Publish(fifoTick{N: i}) })
	})
	t.Run("certified", func(t *testing.T) {
		net := netsim.New(netsim.Config{})
		defer net.Close()
		nodes := newDomain(t, net, 2, fastCfg(), core.WithDispatchLanes(1))
		seesOwnEvents(t, []*core.Engine{nodes[0].engine, nodes[1].engine},
			func(e *core.Engine, h func(int)) error {
				s, err := core.Subscribe(e, nil, func(tr certTrade) { h(tr.N) })
				if err == nil {
					err = s.ActivateDurable(e.ID() + "/trader")
				}
				return err
			},
			func() { waitAds(t, nodes[0].node, 1) },
			func(i int) error { return nodes[0].engine.Publish(certTrade{N: i}) })
	})
}
