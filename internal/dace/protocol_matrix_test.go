package dace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// matrixClass is one wire-compilable obvent class and the protocol tag
// its semantics resolve to; events are told apart by a number.
type matrixClass struct {
	tag       string
	subscribe func(e *core.Engine, got func(n int)) error
	publish   func(e *core.Engine, n int) error
}

func matrixClassOf[T obvent.Obvent](tag string, mk func(n int) T, num func(T) int) matrixClass {
	return matrixClass{
		tag: tag,
		subscribe: func(e *core.Engine, got func(n int)) error {
			s, err := core.Subscribe(e, nil, func(o T) { got(num(o)) })
			if err != nil {
				return err
			}
			return s.Activate()
		},
		publish: func(e *core.Engine, n int) error { return core.Publish(e, mk(n)) },
	}
}

// TestCompactPayloadBeforeAdConvergence is the all-protocol delivery
// matrix: one class per protocol tag, published from a node that has
// installed its membership but heard no peer's advertisement yet, and
// again after convergence. What a publisher knows about its peers
// decides where an event goes, never how it is encoded: every class
// compiles, every post-convergence event reaches every subscriber,
// and the certified events published before any subscriber was known
// are owed by the outbox and arrive too. Pre-advertisement events of
// the routed unreliable classes may reach nobody; they must only cause
// no error.
func TestCompactPayloadBeforeAdConvergence(t *testing.T) {
	const preAd, postAd = 2, 4 // events per class; numbered 0.. and 100..
	for _, gossip := range []bool{false, true} {
		unreliable := "be"
		if gossip {
			unreliable = "gossip"
		}
		classes := []matrixClass{
			matrixClassOf(unreliable,
				func(n int) StockQuote { return StockQuote{StockObvent{Company: "T", Amount: n}} },
				func(q StockQuote) int { return q.Amount }),
			matrixClassOf("rel", func(n int) relPing { return relPing{N: n} }, func(p relPing) int { return p.N }),
			matrixClassOf("fifo", func(n int) fifoTick { return fifoTick{N: n} }, func(k fifoTick) int { return k.N }),
			matrixClassOf("causal",
				func(n int) causalMsg { return causalMsg{Text: fmt.Sprint(n)} },
				func(m causalMsg) int { var n int; fmt.Sscan(m.Text, &n); return n }),
			matrixClassOf("total", func(n int) orderedTick { return orderedTick{N: n} }, func(k orderedTick) int { return k.N }),
			matrixClassOf("cert", func(n int) certTrade { return certTrade{N: n} }, func(c certTrade) int { return c.N }),
		}
		t.Run(unreliable, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg := fastCfg()
			cfg.GossipUnreliable = gossip
			addrs := []string{"node-0", "node-1", "node-2"}
			nodes := make([]*testNode, len(addrs))
			for i, addr := range addrs {
				ep, err := net.NewEndpoint(addr)
				if err != nil {
					t.Fatal(err)
				}
				reg := obvent.NewRegistry()
				registerAll(reg)
				dn := NewNode(ep, reg, cfg)
				nodes[i] = &testNode{node: dn, engine: core.NewEngine(addr, dn, core.WithRegistry(reg))}
				defer nodes[i].engine.Close()
			}
			pub, subs := nodes[0], nodes[1:]

			var mu sync.Mutex
			got := make(map[string]bool) // "node/tag/n"
			for i, sn := range subs {
				for _, c := range classes {
					key := fmt.Sprintf("%s/%s/", addrs[i+1], c.tag)
					err := c.subscribe(sn.engine, func(n int) {
						mu.Lock()
						got[key+fmt.Sprint(n)] = true
						mu.Unlock()
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			// Only the publisher has a membership: the others' control
			// groups have nobody to advertise to, so no ad can reach it.
			pub.node.SetPeers(addrs)
			for _, c := range classes {
				for n := 0; n < preAd; n++ {
					if err := c.publish(pub.engine, n); err != nil {
						t.Fatalf("%s: pre-advertisement publish %d: %v", c.tag, n, err)
					}
				}
			}

			for _, sn := range subs {
				sn.node.SetPeers(addrs)
			}
			waitAds(t, pub.node, len(subs)*len(classes))
			for _, sn := range subs {
				waitAds(t, sn.node, (len(subs)-1)*len(classes))
			}
			for _, c := range classes {
				for n := 100; n < 100+postAd; n++ {
					if err := c.publish(pub.engine, n); err != nil {
						t.Fatalf("%s: publish %d: %v", c.tag, n, err)
					}
				}
			}

			var want []string
			for _, addr := range addrs[1:] {
				for _, c := range classes {
					for n := 100; n < 100+postAd; n++ {
						want = append(want, fmt.Sprintf("%s/%s/%d", addr, c.tag, n))
					}
				}
				for n := 0; n < preAd; n++ {
					want = append(want, fmt.Sprintf("%s/cert/%d", addr, n))
				}
			}
			var missing []string
			defer func() {
				if len(missing) > 0 {
					t.Logf("%d of %d deliveries missing: %v", len(missing), len(want), missing)
				}
			}()
			waitFor(t, 15*time.Second, "matrix deliveries", func() bool {
				missing = missing[:0]
				mu.Lock()
				defer mu.Unlock()
				for _, k := range want {
					if !got[k] {
						missing = append(missing, k)
					}
				}
				return len(missing) == 0
			})

			for i, n := range nodes {
				if st := n.engine.Stats(); st.DecodeErrors != 0 {
					t.Errorf("%s: DecodeErrors = %d, want 0", addrs[i], st.DecodeErrors)
				}
			}
			if ws := pub.node.cdc.WireStats(); ws.Rejects != 0 {
				t.Errorf("publisher node codec: Rejects = %d, want 0; stats %+v", ws.Rejects, ws)
			}
			if st := pub.engine.Stats(); st.WireRejects != 0 {
				t.Errorf("publisher engine codec: WireRejects = %d, want 0", st.WireRejects)
			}
		})
	}
}
