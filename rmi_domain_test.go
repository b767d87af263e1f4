package govents_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/internal/clock"
	"govents/netsim"
	"govents/obvent"
	"govents/rmi"
)

// fig8Quote is the stock quote of the paper's Figure 8: it carries a
// reference to the market that issued it. It is reliable, so that every
// quote reaches the broker across a lossy network.
type fig8Quote struct {
	obvent.Base
	obvent.ReliableBase
	Company string
	Price   float64
	Market  rmi.Ref
}

// fig8Market is the remote object the broker buys on.
type fig8Market struct{ bought atomic.Int32 }

func (m *fig8Market) Buy(company string, price float64, amount int) bool {
	m.bought.Add(1)
	return true
}

// TestFigure8RMIFromAHandlerOverALossyNetwork is §5.4's scenario on the
// public API: three distributed domains over a network that loses 5% of
// its frames, a market publishing 50 quotes that each carry a reference
// to it, and a broker buying from inside its handler. Every call returns
// nil and Buy runs exactly once per quote: a lost request or reply is
// resent on the domain's link, and neither runs twice.
func TestFigure8RMIFromAHandlerOverALossyNetwork(t *testing.T) {
	const quotes = 50
	ctx := context.Background()
	net := netsim.New(netsim.Config{LossRate: 0.05, MaxLatency: time.Millisecond, Seed: 8})
	defer net.Close()
	peers := []string{"market", "broker", "bank"}
	domains := make(map[string]*govents.Domain)
	for _, addr := range peers {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := govents.Open(ctx, addr,
			govents.WithTransport(ep),
			govents.WithPeers(peers...),
			govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(ctx)
		if d.RMI() == nil {
			t.Fatalf("distributed domain %s has no RMI runtime", addr)
		}
		domains[addr] = d
	}
	market := &fig8Market{}
	if err := domains["market"].RMI().Bind("market", market); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var errs []error
	var handled atomic.Int32
	broker := domains["broker"]
	_, err := govents.Subscribe(broker, nil, func(q fig8Quote) {
		var ok bool
		err := broker.RMI().Resolve(q.Market).Call("Buy", []any{q.Company, q.Price, 10}, &ok)
		if err == nil && !ok {
			err = errors.New("Buy returned false")
		}
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		handled.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the broker's subscription to reach the market", func() bool {
		return domains["market"].RemoteSubscriptionCount() >= 1
	})

	ref := domains["market"].RMI().RefTo("market")
	for i := range quotes {
		q := fig8Quote{Company: "Telco", Price: float64(80 + i), Market: ref}
		if err := domains["market"].Publish(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every quote to be handled", func() bool { return handled.Load() == quotes })
	mu.Lock()
	defer mu.Unlock()
	for _, err := range errs {
		t.Errorf("Buy: %v", err)
	}
	if n := market.bought.Load(); n != quotes {
		t.Errorf("Buy ran %d times for %d quotes", n, quotes)
	}
}

// TestIdleRMISendsNothing: the RMI link every distributed domain opens
// costs nothing while unused. Two domains on a fake clock make one call
// and release the proxy, and once that traffic has settled, ten seconds
// of fake time fire no timer and send no frame.
func TestIdleRMISendsNothing(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewFake(time.Unix(0, 0))
	net := netsim.New(netsim.Config{})
	defer net.Close()
	peers := []string{"server", "client"}
	var rts []*rmi.Runtime
	for _, addr := range peers {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := govents.Open(ctx, addr, govents.WithTransport(ep), govents.WithPeers(peers...), govents.WithClock(clk))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(ctx)
		rts = append(rts, d.RMI())
	}
	market := &fig8Market{}
	if err := rts[0].Bind("market", market); err != nil {
		t.Fatal(err)
	}
	var ok bool
	p := rts[1].Dial("server", "market")
	if err := p.Call("Buy", []any{"Telco", 80.0, 1}, &ok); err != nil || !ok {
		t.Fatalf("Buy = %v, %v", ok, err)
	}
	p.Release() // a live proxy renews its lease
	for settled := false; !settled; {
		fired := clk.Fired()
		clk.Advance(time.Second)
		net.Settle()
		settled = clk.Fired() == fired
	}
	fired := clk.Fired()
	sent, _, _, _ := net.Stats()
	clk.Advance(10 * time.Second)
	net.Settle()
	if n := clk.Fired() - fired; n != 0 {
		t.Errorf("idle domains fired %d timer callbacks in 10 s", n)
	}
	if now, _, _, _ := net.Stats(); now != sent {
		t.Errorf("idle domains sent %d frames in 10 s", now-sent)
	}
}
