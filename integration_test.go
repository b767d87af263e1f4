// Cross-module integration tests: the full stack (engine → DACE →
// multicast → transport) over real TCP sockets, and freshness of the
// psc-generated adapters committed in the examples.
package govents_test

import (
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/dace"
	"govents/internal/filter"
	"govents/internal/multicast"
	"govents/internal/obvent"
	"govents/internal/psc"
	"govents/internal/transport"
	"govents/internal/workload"
)

// TestFullStackOverTCP runs a three-node domain on localhost TCP: typed
// subtype-closed subscriptions, a migratable filter applied at the
// publisher, and reliable delivery — the same path cmd/stocknode uses.
func TestFullStackOverTCP(t *testing.T) {
	type tcpNode struct {
		tr     *transport.TCP
		node   *dace.Node
		engine *core.Engine
	}
	mk := func() *tcpNode {
		tr, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		workload.RegisterTypes(reg)
		node := dace.NewNode(tr, reg, dace.Config{
			Placement: dace.AtPublisher,
			Multicast: multicast.Options{RetransmitInterval: 10 * time.Millisecond},
		})
		eng := core.NewEngine(tr.Addr(), node, core.WithRegistry(reg))
		return &tcpNode{tr: tr, node: node, engine: eng}
	}
	pub, subA, subB := mk(), mk(), mk()
	t.Cleanup(func() {
		_ = pub.engine.Close()
		_ = subA.engine.Close()
		_ = subB.engine.Close()
		_ = pub.tr.Close()
		_ = subA.tr.Close()
		_ = subB.tr.Close()
	})
	peers := []string{pub.tr.Addr(), subA.tr.Addr(), subB.tr.Addr()}
	pub.node.SetPeers(peers)
	subA.node.SetPeers(peers)
	subB.node.SetPeers(peers)

	// subA: filtered subscription to the concrete class.
	var cheap atomic.Int32
	sa, err := core.Subscribe(subA.engine,
		filter.Path("GetPrice").Lt(filter.Float(100)),
		func(q workload.StockQuote) { cheap.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Activate(); err != nil {
		t.Fatal(err)
	}
	// subB: supertype subscription — sees every quote.
	var all atomic.Int32
	sb, err := core.Subscribe(subB.engine, nil, func(o workload.StockObvent) { all.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Activate(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for pub.node.RemoteSubscriptionCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pub.node.RemoteSubscriptionCount() < 2 {
		t.Fatal("subscription ads did not propagate over TCP")
	}

	quotes := []workload.StockQuote{
		{StockObvent: workload.StockObvent{Company: "Telco", Price: 80, Amount: 1}},
		{StockObvent: workload.StockObvent{Company: "Telco", Price: 500, Amount: 1}},
		{StockObvent: workload.StockObvent{Company: "Acme", Price: 50, Amount: 1}},
	}
	for _, q := range quotes {
		if err := core.Publish(pub.engine, q); err != nil {
			t.Fatal(err)
		}
	}

	deadline = time.Now().Add(10 * time.Second)
	for (cheap.Load() != 2 || all.Load() != 3) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cheap.Load() != 2 {
		t.Errorf("filtered subscriber got %d, want 2", cheap.Load())
	}
	if all.Load() != 3 {
		t.Errorf("supertype subscriber got %d, want 3", all.Load())
	}
}

// TestLiftedFilterMatchesHandWrittenSemantics checks that the psc-lifted
// CheapTelco expression accepts/rejects exactly like the Go function it
// was lifted from, over the workload generator.
func TestLiftedFilterMatchesHandWrittenSemantics(t *testing.T) {
	res, err := psc.Scan("examples/stocktrading")
	if err != nil {
		t.Fatal(err)
	}
	var src string
	for _, f := range res.Filters {
		if f.Name == "CheapTelco" {
			src = f.ExprSrc
		}
	}
	want := `filter.And(filter.Path("GetPrice").Lt(filter.Int(100)), filter.Path("GetCompany").Contains(filter.Str("Telco")))`
	if src != want {
		t.Fatalf("lifted CheapTelco = %s", src)
	}
	// Evaluate the equivalent expression against the oracle.
	f := filter.And(
		filter.Path("GetPrice").Lt(filter.Int(100)),
		filter.Path("GetCompany").Contains(filter.Str("Telco")),
	)
	gen := workload.NewQuoteGen(99, 10)
	for i := 0; i < 500; i++ {
		q := gen.Next()
		got, err := filter.Evaluate(f, q)
		if err != nil {
			t.Fatal(err)
		}
		oracle := q.Price < 100 && contains(q.Company, "Telco")
		if got != oracle {
			t.Fatalf("lifted filter disagrees with Go semantics on %+v", q)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
