// Stock trading across three processes (simulated network): the
// scenario of the paper's Figures 1, 2 and 8, on the public govents
// API.
//
//   - The stock market (p1) publishes StockQuote obvents, each carrying
//     an RMI reference to the market, and serves Buy() over RMI.
//   - A broker (p2) subscribes to StockQuote with the psc-lifted
//     CheapTelco filter and, from inside the handler, buys synchronously
//     over RMI — publish/subscribe and RMI hand in hand (§5.4.2).
//   - A bank (p3) subscribes to the supertype StockObvent and therefore
//     sees quotes and requests alike (Figure 1's type-based matching),
//     converting brokers' MarketPrice requests into SpotPrice requests
//     once the quote satisfies the limit.
//
// Every participant is one govents.Domain composing publish/subscribe
// and RMI (Domain.RMI) over the same facade and the same transport.
package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"govents"
	"govents/netsim"
)

// stockMarket is the remote object of Figure 8.
type stockMarket struct {
	purchases atomic.Int32
}

// Buy executes a purchase synchronously (RMI).
func (m *stockMarket) Buy(company string, price float64, amount int, buyer string) bool {
	m.purchases.Add(1)
	fmt.Printf("[market] sold %d %s at %.2f to %s\n", amount, company, price, buyer)
	return true
}

func newParticipant(ctx context.Context, net *netsim.Network, name string, peers []string) *govents.Domain {
	ep, err := net.NewEndpoint(name)
	must(err)
	d, err := govents.Open(ctx, name,
		govents.WithTransport(ep),
		govents.WithPeers(peers...),
		govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
	)
	must(err)
	return d
}

func main() {
	ctx := context.Background()
	net := netsim.New(netsim.Config{MaxLatency: 2 * time.Millisecond})
	defer net.Close()

	peers := []string{"p1-market", "p2-broker", "p3-bank"}
	market := newParticipant(ctx, net, "p1-market", peers)
	broker := newParticipant(ctx, net, "p2-broker", peers)
	bank := newParticipant(ctx, net, "p3-bank", peers)
	for _, d := range []*govents.Domain{market, broker, bank} {
		defer d.Close(ctx)
	}

	// The market exports itself for synchronous purchases.
	mkt := &stockMarket{}
	must(market.RMI().Bind("market", mkt))
	marketRef := market.RMI().RefTo("market")

	// Typed adapters generated by psc (Figure 6).
	quotesAtMarket := NewStockQuoteAdapter(market)
	quotesAtBroker := NewStockQuoteAdapter(broker)
	ordersAtBroker := NewMarketPriceAdapter(broker)
	baseAtBank := NewStockObventAdapter(bank)
	spotAtBank := NewSpotPriceAdapter(bank)
	// Register remaining classes everywhere (shared type knowledge).
	for _, d := range []*govents.Domain{market, broker, bank} {
		NewStockObventAdapter(d)
		NewStockQuoteAdapter(d)
		NewStockRequestAdapter(d)
		NewSpotPriceAdapter(d)
		NewMarketPriceAdapter(d)
	}

	// The market also receives spot requests (from the bank).
	marketDone := make(chan struct{})
	_, err := NewSpotPriceAdapter(market).Subscribe(nil, func(r SpotPrice) {
		fmt.Printf("[market] spot request: %d %s for %s\n", r.Amount, r.Company, r.Broker)
		close(marketDone)
	})
	must(err)

	// Broker: Figure 8 — subscribe with the lifted CheapTelco filter;
	// buy over RMI from inside the handler.
	bought := make(chan struct{})
	_, err = quotesAtBroker.Subscribe(CheapTelcoExpr(), func(q StockQuote) {
		fmt.Printf("[broker] offer %s at %.2f — buying over RMI\n", q.Company, q.Price)
		proxy := broker.RMI().Resolve(q.Market)
		var ok bool
		must(proxy.Call("Buy", []any{q.Company, q.Price, q.Amount, "broker-7"}, &ok))
		if ok {
			close(bought)
		}
	})
	must(err)

	// Bank: subscribes to the SUPERTYPE StockObvent — receives every
	// quote and every request (Figure 1). It executes brokers' market
	// orders when a quote satisfies the limit.
	var pendingLimit atomic.Value // MarketPrice
	bankDone := make(chan struct{})
	_, err = baseAtBank.Subscribe(nil, func(o StockObvent) {
		fmt.Printf("[bank]   observed %s at %.2f\n", o.Company, o.Price)
	})
	must(err)
	_, err = NewMarketPriceAdapter(bank).Subscribe(nil, func(m MarketPrice) {
		fmt.Printf("[bank]   standing order: %s under %.2f for %s\n", m.Company, m.LimitPrice, m.Broker)
		pendingLimit.Store(m)
	})
	must(err)
	_, err = NewStockQuoteAdapter(bank).Subscribe(nil, func(q StockQuote) {
		if m, ok := pendingLimit.Load().(MarketPrice); ok && m.Company == q.Company && q.Price <= m.LimitPrice {
			fmt.Printf("[bank]   limit hit (%.2f <= %.2f): issuing spot request\n", q.Price, m.LimitPrice)
			must(spotAtBank.Publish(ctx, SpotPrice{StockRequest: StockRequest{
				StockObvent: StockObvent{Company: q.Company, Price: q.Price, Amount: m.Amount},
				Broker:      m.Broker,
			}}))
			pendingLimit.Store(MarketPrice{}) // consumed
			close(bankDone)
		}
	})
	must(err)

	// Let subscription advertisements propagate.
	waitUntil(func() bool { return market.RemoteSubscriptionCount() >= 4 })

	// The broker places a standing market order via pub/sub.
	must(ordersAtBroker.Publish(ctx, MarketPrice{
		StockRequest: StockRequest{
			StockObvent: StockObvent{Company: "Acme", Amount: 5},
			Broker:      "broker-7",
		},
		LimitPrice: 60,
	}))

	// The market publishes quotes.
	quotes := []StockObvent{
		{Company: "Acme", Price: 90, Amount: 5},           // above the limit
		{Company: "Telco Mobiles", Price: 80, Amount: 10}, // broker's filter fires
		{Company: "Acme", Price: 55, Amount: 5},           // bank's limit fires
	}
	for _, q := range quotes {
		must(quotesAtMarket.Publish(ctx, StockQuote{StockObvent: q, Market: marketRef}))
		time.Sleep(20 * time.Millisecond)
	}

	for _, ch := range []chan struct{}{bought, bankDone, marketDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			panic("scenario did not complete")
		}
	}
	if mkt.purchases.Load() < 1 {
		panic("no RMI purchase")
	}
	fmt.Println("stocktrading: ok")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	panic("timeout waiting for condition")
}
