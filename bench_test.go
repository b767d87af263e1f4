// Benchmark harness: one benchmark per experiment the repository runs
// on its own engine. The paper's evaluation is qualitative; its
// performance claims are regenerated here as measurable series (C1, C2
// and C4-C6 below), all but the scalability of gossip (§4.2): unreliable
// classes have one protocol, best effort. Shapes, not absolute numbers,
// are the reproduction target. The end-to-end benchmark over real TCP,
// with its gates, is bench/. The loaded-system experiments live beside them:
// sparse-interest multicast in BenchmarkSparseMulticast and the dace
// prune tests, per-stage pipeline cost in BenchmarkDispatchOverhead and
// bench/'s ledger, durable crash/catch-up/resume in
// TestDomainGroupCertifiedChaosSchedule, overload in BenchmarkOverload
// and the core quarantine tests, and a late-joining durable subscriber
// in TestSelfSubscribedDurablePublisher.
package govents_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents"

	"govents/internal/accessor"
	"govents/internal/codec"
	"govents/internal/content"
	"govents/internal/core"
	"govents/internal/dace"
	"govents/internal/filter"
	"govents/internal/matching"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/rmi"
	"govents/internal/routing"
	"govents/internal/telemetry"
	"govents/internal/topics"
	"govents/internal/tuplespace"
	"govents/internal/vclock"
	"govents/internal/wire"
	"govents/internal/workload"
)

func fastOpts() multicast.Options {
	return multicast.Options{RetransmitInterval: 5 * time.Millisecond}
}

// benchDomain builds n dace nodes + engines over a fresh netsim.
func benchDomain(b *testing.B, net *netsim.Network, n int, cfg dace.Config) ([]*dace.Node, []*core.Engine) {
	b.Helper()
	var nodes []*dace.Node
	var engines []*core.Engine
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node-%02d", i)
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			b.Fatal(err)
		}
		reg := obvent.NewRegistry()
		workload.RegisterTypes(reg)
		dn := dace.NewNode(ep, reg, cfg)
		engines = append(engines, core.NewEngine(addr, dn, core.WithRegistry(reg)))
		nodes = append(nodes, dn)
		addrs[i] = addr
	}
	for _, dn := range nodes {
		dn.SetPeers(addrs)
	}
	b.Cleanup(func() {
		for _, e := range engines {
			_ = e.Close()
		}
	})
	return nodes, engines
}

func waitUntil(b *testing.B, timeout time.Duration, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("bench condition timeout")
}

// --- F1: type-based matching vs hierarchy (paper Figure 1) ---

// BenchmarkF1TypeMatching measures subtype-closed matching throughput:
// the cost of deciding, per published class, whether it conforms to a
// subscribed (super)type at increasing hierarchy distance.
func BenchmarkF1TypeMatching(b *testing.B) {
	reg := obvent.NewRegistry()
	workload.RegisterTypes(reg)
	spot := obvent.TypeName(obvent.TypeOf[workload.SpotPrice]())
	targets := map[string]string{
		"same-class":     spot,
		"parent":         obvent.TypeName(obvent.TypeOf[workload.StockRequest]()),
		"grandparent":    obvent.TypeName(obvent.TypeOf[workload.StockObvent]()),
		"non-conforming": obvent.TypeName(obvent.TypeOf[workload.StockQuote]()),
	}
	for name, target := range targets {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reg.ConformsTo(spot, target)
			}
		})
	}
}

// --- C1: remote filtering & factoring (paper §2.3.2) ---

// BenchmarkC1RemoteFiltering compares network messages per published
// obvent with subscriber-side vs publisher-side filter placement, at
// filter selectivities of 1, 10, 50 and 100%.
func BenchmarkC1RemoteFiltering(b *testing.B) {
	for _, pct := range []int{1, 10, 50, 100} {
		for _, tc := range []struct {
			name      string
			placement dace.Placement
		}{
			{"at-subscriber", dace.AtSubscriber},
			{"at-publisher", dace.AtPublisher},
		} {
			b.Run(fmt.Sprintf("selectivity=%d%%/%s", pct, tc.name), func(b *testing.B) {
				net := netsim.New(netsim.Config{})
				defer net.Close()
				nodes, engines := benchDomain(b, net, 2, dace.Config{Placement: tc.placement, Multicast: fastOpts()})
				var got atomic.Int64
				f := filter.Path("GetPrice").Lt(filter.Float(float64(10 * pct))) // prices uniform in [1,1000)
				sub, err := core.Subscribe(engines[1], f, func(q workload.StockQuote) { got.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				_ = sub.Activate()
				waitUntil(b, 5*time.Second, func() bool { return nodes[0].RemoteSubscriptionCount() >= 1 })
				net.Settle()
				net.ResetStats()
				gen := workload.NewQuoteGen(1, 20)

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := core.Publish(engines[0], gen.Next()); err != nil {
						b.Fatal(err)
					}
				}
				net.Settle()
				b.StopTimer()
				sent, bytes, _, _ := net.Stats()
				b.ReportMetric(float64(sent)/float64(b.N), "msgs/op")
				b.ReportMetric(float64(bytes)/float64(b.N), "wirebytes/op")
			})
		}
	}
}

// BenchmarkC1Factoring compares naive per-subscription filter
// evaluation against the compound (factored) matcher.
func BenchmarkC1Factoring(b *testing.B) {
	gen := workload.NewQuoteGen(2, 20)
	for _, subs := range []int{10, 100, 1000} {
		filters := map[string]*filter.Expr{}
		for i, spec := range gen.Interests(subs) {
			filters[fmt.Sprintf("s%04d", i)] = spec.Filter()
		}
		c := matching.New()
		if err := c.AddBatch(filters); err != nil {
			b.Fatal(err)
		}
		q := gen.Next()
		b.Run(fmt.Sprintf("naive/subs=%d", subs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MatchNaive(q)
			}
		})
		b.Run(fmt.Sprintf("compound/subs=%d", subs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Match(q)
			}
			st := c.Stats()
			b.ReportMetric(float64(st.UniqueConds), "uniqueconds")
			b.ReportMetric(float64(st.TotalConds), "totalconds")
		})
	}
}

// --- C2: delivery semantics cost (paper §3.1.2) ---

// BenchmarkC2Semantics measures end-to-end publish+deliver cost per
// delivery semantics on a 4-node domain (3 subscribers).
func BenchmarkC2Semantics(b *testing.B) {
	type pubFn func(e *core.Engine, q workload.StockObvent) error
	cases := []struct {
		name string
		pub  pubFn
	}{
		{"unreliable", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.StockQuote{StockObvent: q})
		}},
		{"reliable", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.QuoteReliable{StockObvent: q})
		}},
		{"fifo", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.QuoteFIFO{StockObvent: q})
		}},
		{"causal", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.QuoteCausal{StockObvent: q})
		}},
		{"total", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.QuoteTotal{StockObvent: q})
		}},
		{"certified", func(e *core.Engine, q workload.StockObvent) error {
			return core.Publish(e, workload.QuoteCertified{StockObvent: q})
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			nodes, engines := benchDomain(b, net, 4, dace.Config{Multicast: fastOpts()})
			var got atomic.Int64
			for _, e := range engines[1:] {
				sub, err := core.Subscribe(e, nil, func(o workload.StockObvent) { got.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				_ = sub.Activate()
			}
			waitUntil(b, 5*time.Second, func() bool { return nodes[0].RemoteSubscriptionCount() >= 3 })
			net.Settle() // drain control-plane traffic before timing
			net.ResetStats()
			gen := workload.NewQuoteGen(3, 10)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.pub(engines[0], gen.Next().StockObvent); err != nil {
					b.Fatal(err)
				}
			}
			want := int64(b.N * 3)
			waitUntil(b, time.Minute, func() bool { return got.Load() >= want })
			b.StopTimer()
			sent, _, _, _ := net.Stats()
			b.ReportMetric(float64(sent)/float64(b.N), "msgs/op")
		})
	}
}

// --- C4: subscription-scheme baselines (paper §2.3.2, §5, §6) ---

// BenchmarkC4Baselines measures matching cost per event against 1000
// subscriptions for each subscription scheme.
func BenchmarkC4Baselines(b *testing.B) {
	const subs = 1000
	gen := workload.NewQuoteGen(7, 20)
	specs := gen.Interests(subs)
	q := gen.Next()

	b.Run("type-based-compound", func(b *testing.B) {
		filters := map[string]*filter.Expr{}
		for i, s := range specs {
			filters[fmt.Sprintf("s%d", i)] = s.Filter()
		}
		c := matching.New()
		if err := c.AddBatch(filters); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Match(q)
		}
	})
	b.Run("topic-based", func(b *testing.B) {
		tb := topics.New()
		for _, s := range specs {
			if _, err := tb.Subscribe("stocks."+s.Company, func(string, any) {}); err != nil {
				b.Fatal(err)
			}
		}
		topic := "stocks." + q.Company
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Publish(topic, q)
		}
	})
	b.Run("content-attr-value", func(b *testing.B) {
		cb := content.New()
		for _, s := range specs {
			if _, err := cb.Subscribe([]content.Pred{
				{Attr: "company", Op: content.Eq, Val: s.Company},
				{Attr: "price", Op: content.Lt, Val: s.MaxPrice},
			}, func(content.Event) {}); err != nil {
				b.Fatal(err)
			}
		}
		ev := content.Event{"company": q.Company, "price": q.Price, "amount": q.Amount}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cb.Publish(ev)
		}
	})
	b.Run("tuple-space", func(b *testing.B) {
		ts := tuplespace.New()
		defer ts.Close()
		for _, s := range specs {
			ts.Notify(tuplespace.Template{tuplespace.Val(s.Company), tuplespace.Type[float64]()}, func(tuplespace.Tuple) {})
		}
		tp := tuplespace.Tuple{q.Company, q.Price}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ts.Out(tp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C5: thread policies (paper §3.3.5) ---

// BenchmarkC5ThreadPolicies measures handler throughput with a 200µs
// blocking handler under each thread policy.
func BenchmarkC5ThreadPolicies(b *testing.B) {
	policies := []struct {
		name  string
		apply func(*core.Subscription)
	}{
		{"single", func(s *core.Subscription) { s.SetSingleThreading() }},
		{"multi-4", func(s *core.Subscription) { s.SetMultiThreading(4) }},
		{"multi-unbounded", func(s *core.Subscription) { s.SetMultiThreading(0) }},
	}
	for _, tc := range policies {
		b.Run(tc.name, func(b *testing.B) {
			e := core.NewEngine("c5", core.NewLocal())
			defer e.Close()
			workload.RegisterTypes(e.Registry())
			var wg sync.WaitGroup
			sub, err := core.Subscribe(e, nil, func(q workload.StockQuote) {
				time.Sleep(200 * time.Microsecond)
				wg.Done()
			})
			if err != nil {
				b.Fatal(err)
			}
			tc.apply(sub)
			_ = sub.Activate()
			gen := workload.NewQuoteGen(11, 5)
			b.ResetTimer()
			wg.Add(b.N)
			for i := 0; i < b.N; i++ {
				if err := core.Publish(e, gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		})
	}
}

// --- C6: RMI vs publish/subscribe fanout (paper §5.4) ---

// BenchmarkC6RMIvsPubsub measures one notification round to N
// receivers via N synchronous RMI calls vs one reliable publish.
func BenchmarkC6RMIvsPubsub(b *testing.B) {
	latency := netsim.Config{MinLatency: 100 * time.Microsecond, MaxLatency: 200 * time.Microsecond}
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("rmi/receivers=%d", n), func(b *testing.B) {
			net := netsim.New(latency)
			defer net.Close()
			callerEp, err := net.NewEndpoint("caller")
			if err != nil {
				b.Fatal(err)
			}
			caller := rmi.New(callerEp, rmi.Options{})
			defer caller.Close()
			proxies := make([]*rmi.Proxy, n)
			for i := 0; i < n; i++ {
				ep, err := net.NewEndpoint(fmt.Sprintf("recv-%02d", i))
				if err != nil {
					b.Fatal(err)
				}
				rt := rmi.New(ep, rmi.Options{})
				defer rt.Close()
				if err := rt.Bind("sink", &benchSink{}); err != nil {
					b.Fatal(err)
				}
				proxies[i] = caller.Dial(ep.Addr(), "sink")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range proxies {
					if err := p.Call("Notify", []any{"quote", 80.0}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("pubsub/receivers=%d", n), func(b *testing.B) {
			net := netsim.New(latency)
			defer net.Close()
			nodes, engines := benchDomain(b, net, n+1, dace.Config{Multicast: fastOpts()})
			var got atomic.Int64
			for _, e := range engines[1:] {
				sub, err := core.Subscribe(e, nil, func(q workload.QuoteReliable) { got.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				_ = sub.Activate()
			}
			waitUntil(b, 10*time.Second, func() bool { return nodes[0].RemoteSubscriptionCount() >= n })
			net.Settle() // drain the subscription-advertisement storm
			gen := workload.NewQuoteGen(13, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				want := got.Load() + int64(n)
				if err := core.Publish(engines[0], workload.QuoteReliable{StockObvent: gen.Next().StockObvent}); err != nil {
					b.Fatal(err)
				}
				waitUntil(b, 30*time.Second, func() bool { return got.Load() >= want })
			}
		})
	}
}

// benchSink is the RMI notification receiver.
type benchSink struct{}

// Notify accepts a notification.
func (s *benchSink) Notify(what string, price float64) {}

// --- C7: engine dispatch pipeline (indexed vs naive) ---

// BenchmarkDispatch measures the engine's per-envelope delivery cost
// end to end (publish → inbox → match → clone → handler) for the naive
// per-subscription path (the seed's dispatch loop, kept behind
// WithNaiveDispatch) against the indexed pipeline (type bucket +
// compound matcher + clone-per-match). Subscriptions hold distinct
// GetPrice thresholds spread over [0, 1000); selectivity is the
// fraction of subscriptions the published quote matches.
func BenchmarkDispatch(b *testing.B) {
	modes := []struct {
		name string
		opts []core.Option
	}{
		{"naive", []core.Option{core.WithNaiveDispatch()}},
		{"indexed", nil},
	}
	for _, subs := range []int{10, 100, 1000} {
		for _, sel := range []struct {
			name string
			frac float64
		}{{"sel=1pct", 0.01}, {"sel=10pct", 0.10}} {
			for _, mode := range modes {
				b.Run(fmt.Sprintf("%s/subs=%d/%s", mode.name, subs, sel.name), func(b *testing.B) {
					benchDispatch(b, subs, sel.frac, mode.opts...)
				})
			}
		}
	}
}

func benchDispatch(b *testing.B, nSubs int, frac float64, opts ...core.Option) {
	e := core.NewEngine("bench-dispatch", core.NewLocal(), opts...)
	defer func() { _ = e.Close() }()
	workload.RegisterTypes(e.Registry())

	var got atomic.Int64
	// Thresholds sit at (i+0.5)*1000/n; placing the price on a grid
	// boundary makes exactly `matches` of them exceed it (at least one,
	// so low-subscriber cells never degenerate to an empty workload).
	matches := int(frac * float64(nSubs))
	if matches < 1 {
		matches = 1
	}
	price := float64(nSubs-matches) * 1000 / float64(nSubs)
	for i := 0; i < nSubs; i++ {
		threshold := (float64(i) + 0.5) * 1000 / float64(nSubs)
		f := filter.Path("GetPrice").Lt(filter.Float(threshold))
		sub, err := core.Subscribe(e, f, func(q workload.StockQuote) { got.Add(1) })
		if err != nil {
			b.Fatal(err)
		}
		if err := sub.Activate(); err != nil {
			b.Fatal(err)
		}
	}
	q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: price, Amount: 1}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Publish(e, q); err != nil {
			b.Fatal(err)
		}
	}
	want := int64(b.N * matches)
	waitUntil(b, time.Minute, func() bool { return got.Load() >= want })
	b.StopTimer()
	b.ReportMetric(float64(matches), "matches/op")
}

// BenchmarkDispatchOverhead is the telemetry overhead gate: the same
// dispatch workload (1000 subscriptions, 1% selectivity) with the
// telemetry plane disabled and enabled. CI asserts the enabled ns/op
// stays within 5% of disabled (benchjson -gate). The enabled run also
// reports the end-to-end latency quantiles its histograms observed, so
// BENCH_dispatch.json carries p50/p99 alongside throughput.
func BenchmarkDispatchOverhead(b *testing.B) {
	b.Run("telemetry=off", func(b *testing.B) {
		benchDispatch(b, 1000, 0.01, core.WithTelemetry(nil))
	})
	b.Run("telemetry=on", func(b *testing.B) {
		p := telemetry.NewPlane()
		benchDispatch(b, 1000, 0.01, core.WithTelemetry(p))
		if e2e := p.StageSnapshot(telemetry.StageE2E); e2e.Count > 0 {
			b.ReportMetric(float64(e2e.Quantile(0.5)), "p50_ns")
			b.ReportMetric(float64(e2e.Quantile(0.99)), "p99_ns")
		}
	})
}

// sinkTap is a Disseminator that exposes the engine's delivery sink for
// direct envelope injection. Benchmarks use it to drive the dispatcher
// from many publisher goroutines at once with envelopes encoded
// beforehand, so neither Publish's encode nor the loopback substrate's
// lock sits upstream of the lanes being measured.
type sinkTap struct{ sink func(*codec.Envelope) }

func (s *sinkTap) PublishEnvelope(env *codec.Envelope) error { s.sink(env); return nil }

func (s *sinkTap) SetSink(sink func(*codec.Envelope)) { s.sink = sink }

func (s *sinkTap) SubscriptionChanged([]core.SubscriptionInfo, ...string) error { return nil }

func (s *sinkTap) Close() error { return nil }

// BenchmarkDispatchParallel measures multi-lane dispatch throughput:
// 1000 filtered subscriptions, an unordered workload at 1% selectivity,
// and more concurrent publishers than lanes, delivered straight into the
// engine sink. Envelopes hash by publisher across the parallel lanes, so
// throughput should scale with the lane count on a multi-core runner
// (lanes=1 is the serialized baseline).
func BenchmarkDispatchParallel(b *testing.B) {
	const (
		nSubs      = 1000
		publishers = 8
	)
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			tap := &sinkTap{}
			e := core.NewEngine("bench-parallel", tap, core.WithDispatchLanes(lanes))
			defer func() { _ = e.Close() }()
			workload.RegisterTypes(e.Registry())

			var got atomic.Int64
			const matches = nSubs / 100
			price := float64(nSubs-matches) * 1000 / float64(nSubs)
			for i := 0; i < nSubs; i++ {
				threshold := (float64(i) + 0.5) * 1000 / float64(nSubs)
				f := filter.Path("GetPrice").Lt(filter.Float(threshold))
				sub, err := core.Subscribe(e, f, func(q workload.StockQuote) { got.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				if err := sub.Activate(); err != nil {
					b.Fatal(err)
				}
			}

			// One pre-encoded envelope per publisher identity; encoding
			// happens off the clock so only routing+dispatch is measured.
			q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: price, Amount: 1}}
			envs := make([]*codec.Envelope, publishers)
			for p := range envs {
				env, err := e.Codec().Encode(q)
				if err != nil {
					b.Fatal(err)
				}
				env.Publisher = fmt.Sprintf("publisher-%02d", p)
				envs[p] = env
			}

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				n := b.N / publishers
				if p < b.N%publishers {
					n++
				}
				wg.Add(1)
				go func(env *codec.Envelope, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						tap.sink(env)
					}
				}(envs[p], n)
			}
			wg.Wait()
			want := int64(b.N) * matches
			waitUntil(b, 5*time.Minute, func() bool { return got.Load() >= want })
			b.StopTimer()
			b.ReportMetric(float64(matches), "matches/op")
		})
	}
}

// BenchmarkOverload measures the bounded-lane layer. The unbounded /
// bounded-idle pair is the CI fast-path gate: with a bound configured
// but never reached, dispatch must stay within 5% of the unbounded
// baseline (benchjson -gate). The policy=* cells saturate a small bound
// with more publishers than lanes and report the per-envelope cost of
// each overload policy under pressure, its shed/spill accounting, and
// the delivered latency p99. Part of the dispatch CI family archived
// into BENCH_dispatch.json.
func BenchmarkOverload(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) { benchDispatch(b, 100, 0.10) })
	b.Run("bounded-idle", func(b *testing.B) {
		benchDispatch(b, 100, 0.10,
			core.WithLaneQueueBound(1<<16), core.WithOverloadPolicy(core.OverloadBlock))
	})
	for _, pol := range []struct {
		name   string
		policy core.OverloadPolicy
	}{
		{"block", core.OverloadBlock},
		{"drop-oldest", core.OverloadDropOldest},
		{"spill", core.OverloadSpill},
	} {
		b.Run("policy="+pol.name, func(b *testing.B) { benchOverloadPolicy(b, pol.policy) })
	}
}

func benchOverloadPolicy(b *testing.B, policy core.OverloadPolicy) {
	const (
		publishers = 8
		lanes      = 2
		bound      = 256
	)
	tap := &sinkTap{}
	p := telemetry.NewPlane()
	opts := []core.Option{
		core.WithDispatchLanes(lanes),
		core.WithLaneQueueBound(bound),
		core.WithOverloadPolicy(policy),
		core.WithTelemetry(p),
	}
	if policy == core.OverloadSpill {
		opts = append(opts, core.WithSpillDir(b.TempDir()))
	}
	e := core.NewEngine("bench-overload", tap, opts...)
	defer func() { _ = e.Close() }()
	workload.RegisterTypes(e.Registry())

	// One subscription doing a fixed slice of work per delivery, so
	// `publishers` producers outrun `lanes` drains and the bound
	// genuinely engages (the handler cost is identical across policies,
	// so the cells compare overload machinery, not handler speed).
	var got atomic.Int64
	sub, err := core.Subscribe(e, nil, func(q workload.StockQuote) {
		h := uint64(14695981039346656037)
		for i := 0; i < 256; i++ {
			h = (h ^ uint64(i)) * 1099511628211
		}
		if h == 0 { // never: keeps the spin from being elided
			return
		}
		got.Add(1)
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		b.Fatal(err)
	}

	q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: 1, Amount: 1}}
	envs := make([]*codec.Envelope, publishers)
	for i := range envs {
		env, err := e.Codec().Encode(q)
		if err != nil {
			b.Fatal(err)
		}
		env.Publisher = fmt.Sprintf("publisher-%02d", i)
		envs[i] = env
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		n := b.N / publishers
		if i < b.N%publishers {
			n++
		}
		wg.Add(1)
		go func(env *codec.Envelope, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				tap.sink(env)
			}
		}(envs[i], n)
	}
	wg.Wait()
	// Lossless policies deliver everything; DropOldest delivers the
	// survivors — wait for the lanes (memory and spill) to drain fully
	// either way, so the measured interval covers the whole backlog.
	waitUntil(b, 5*time.Minute, func() bool {
		for _, l := range e.LaneStats() {
			if l.Queued != 0 || l.SpillBacklog != 0 {
				return false
			}
		}
		return got.Load()+int64(e.Stats().Shed) >= int64(b.N)
	})
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.Shed)/float64(b.N), "shed/op")
	b.ReportMetric(float64(st.Spilled)/float64(b.N), "spilled/op")
	lat := p.StageSnapshot(telemetry.StageE2E)
	if lat.Count == 0 {
		lat = p.StageSnapshot(telemetry.StageDispatch)
	}
	if lat.Count > 0 {
		b.ReportMetric(float64(lat.Quantile(0.99)), "p99_ns")
	}
}

// --- C8: publisher-side routing plane (paper §2.3.2 at the dissemination layer) ---

// BenchmarkPublisherRouting measures the publisher's per-event
// destination decision with 1000 remote subscriptions spread across 16
// nodes: the per-entry baseline (one filter.Evaluate per advertised
// subscription until its node matches — the pre-routing-plane
// destinationsFor loop) against the compiled routing plan (one compound
// evaluation per event, match IDs are nodes). Part of the dispatch CI
// family; cmd/benchjson archives it into BENCH_dispatch.json.
func BenchmarkPublisherRouting(b *testing.B) {
	const (
		nNodes = 16
		nSubs  = 1000
	)
	for _, sel := range []struct {
		name string
		frac float64
	}{{"sel=1pct", 0.01}, {"sel=10pct", 0.10}} {
		reg := obvent.NewRegistry()
		workload.RegisterTypes(reg)
		class := obvent.TypeName(obvent.TypeOf[workload.StockQuote]())
		tbl := routing.NewTable(reg)
		for n := 0; n < nNodes; n++ {
			var infos []core.SubscriptionInfo
			// Round-robin threshold spread, as in BenchmarkDispatch.
			for i := n; i < nSubs; i += nNodes {
				threshold := (float64(i) + 0.5) * 1000 / nSubs
				data, err := filter.MarshalCanonical(filter.Path("GetPrice").Lt(filter.Float(threshold)))
				if err != nil {
					b.Fatal(err)
				}
				infos = append(infos, core.SubscriptionInfo{
					ID:       fmt.Sprintf("node-%02d/sub-%04d", n, i),
					TypeName: class,
					Filter:   data,
				})
			}
			tbl.ApplySnapshot(fmt.Sprintf("node-%02d", n), 1, infos)
		}
		matches := int(sel.frac * nSubs)
		price := float64(nSubs-matches) * 1000 / nSubs
		var ev any = workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: price, Amount: 1}}

		b.Run(fmt.Sprintf("per-entry/subs=%d/%s", nSubs, sel.name), func(b *testing.B) {
			b.ReportAllocs()
			var nDests int
			for i := 0; i < b.N; i++ {
				nDests = len(tbl.DestinationsNaive(class, ev))
			}
			b.ReportMetric(float64(nDests), "dests/op")
		})
		b.Run(fmt.Sprintf("compound/subs=%d/%s", nSubs, sel.name), func(b *testing.B) {
			b.ReportAllocs()
			decode := func() any { return ev }
			dst := make([]string, 0, nNodes)
			var nDests int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = tbl.Destinations(class, decode, dst[:0])
				nDests = len(dst)
			}
			b.ReportMetric(float64(nDests), "dests/op")
		})
	}
}

// --- micro: primitive costs ---

// BenchmarkPublishLocal measures the publish primitive on the loopback
// substrate end to end (encode + dispatch + decode + handler).
func BenchmarkPublishLocal(b *testing.B) {
	e := core.NewEngine("micro", core.NewLocal())
	defer e.Close()
	workload.RegisterTypes(e.Registry())
	var wg sync.WaitGroup
	sub, err := core.Subscribe(e, nil, func(q workload.StockQuote) { wg.Done() })
	if err != nil {
		b.Fatal(err)
	}
	_ = sub.Activate()
	gen := workload.NewQuoteGen(17, 5)
	q := gen.Next()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		if err := core.Publish(e, q); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkFilterEvaluate measures single-filter evaluation (the
// paper's §2.3.3 example filter).
func BenchmarkFilterEvaluate(b *testing.B) {
	f := filter.And(
		filter.Path("GetPrice").Lt(filter.Float(100)),
		filter.Path("GetCompany").Contains(filter.Str("Telco")),
	)
	q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: 80}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Evaluate(f, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C9: compiled reflection (accessor programs + deep copiers) ---

// BenchmarkAccessor measures per-event accessor-path resolution: the
// reflective name-lookup walk (filter.ResolvePath, the pre-compile hot
// path and retained fallback) against the compiled per-(type, path)
// program (package accessor). "field" is a promoted struct field
// (Price, reached through the embedded StockObvent); "method" is the
// paper's encapsulated accessor form (GetPrice). The compiled method
// row is the reflective Method(i) step, which is what a class no
// generic Subscribe call has named gets (run with -run='^$', so no test
// subscribes StockQuote first); "typed/method" is the direct call a
// subscribed class gets (accessor.Register). Part of the dispatch CI
// family; cmd/benchjson archives it into BENCH_dispatch.json.
func BenchmarkAccessor(b *testing.B) {
	q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: 80, Amount: 1}}
	rv := reflect.ValueOf(q)
	var boxed any = q
	b.Run("typed/method", func(b *testing.B) {
		type typedQuote struct{ workload.StockQuote }
		accessor.Register[typedQuote]()
		var ev any = typedQuote{q}
		prog, err := accessor.Compile(reflect.TypeOf(ev), []string{"GetPrice"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Constant(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, path := range []struct {
		name string
		segs []string
	}{
		{"field", []string{"Price"}},
		{"method", []string{"GetPrice"}},
	} {
		b.Run("reflective/"+path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := filter.ResolvePath(rv, path.segs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := filter.ValueOf(v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("compiled/"+path.name, func(b *testing.B) {
			prog, err := accessor.Compile(rv.Type(), path.segs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prog.Constant(boxed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C10: compact wire format (compiled per-class codec programs) ---

// BenchmarkWireCodec measures payload encoding and decoding for a flat
// class and a pointer-bearing one: the gob baseline (a fresh
// encoder/decoder per event, which is what the envelope payload path
// paid before the wire format) against the compiled per-class wire
// program. Part of the dispatch CI family; cmd/benchjson archives it
// into BENCH_dispatch.json.
func BenchmarkWireCodec(b *testing.B) {
	cases := []struct {
		name string
		v    any
	}{
		{"flat", workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: 80, Amount: 1}}},
		{"pointer-bearing", quoteBook{
			Company: "Telco Mobiles",
			Bids:    []bookLevel{{99, 10}, {98, 25}, {97, 5}},
			Asks:    []bookLevel{{101, 8}, {102, 40}},
			Venue:   &venueInfo{Name: "XETRA", Country: "DE"},
			Meta:    map[string]string{"session": "open", "tier": "1"},
		}},
	}
	for _, tc := range cases {
		rt := reflect.TypeOf(tc.v)
		prog, err := wire.Compile(rt, nil)
		if err != nil {
			b.Fatal(err)
		}
		rv := reflect.ValueOf(tc.v)
		wireData, err := prog.Append(nil, rv)
		if err != nil {
			b.Fatal(err)
		}
		var gobBuf bytes.Buffer
		if err := gob.NewEncoder(&gobBuf).Encode(tc.v); err != nil {
			b.Fatal(err)
		}
		gobData := append([]byte(nil), gobBuf.Bytes()...)

		b.Run("encode/gob/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(tc.v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "bytes/ev")
		})
		b.Run("encode/wire/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var data []byte
			for i := 0; i < b.N; i++ {
				if data, err = prog.Append(data[:0], rv); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "bytes/ev")
		})
		b.Run("decode/gob/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pv := reflect.New(rt)
				if err := gob.NewDecoder(bytes.NewReader(gobData)).DecodeValue(pv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/wire/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rv := reflect.New(rt).Elem()
				if err := prog.Decode(wireData, rv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeRoundTrip measures the envelope's binary framing,
// one codec.Marshal and one codec.Unmarshal around an already encoded
// compact payload — what every publication pays once per frame on top
// of the payload codec above. "flat" is the FIFO wire path's envelope
// (no optional field); "every-field" adds a vector clock, a priority
// and a validity window. Part of the dispatch CI family.
func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	reg := obvent.NewRegistry()
	workload.RegisterTypes(reg)
	flat, err := codec.New(reg).Encode(workload.StockQuote{
		StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: 80, Amount: 1}})
	if err != nil {
		b.Fatal(err)
	}
	flat.Publisher = "127.0.0.1:40123"
	every := *flat
	every.VC = vclock.VC{"127.0.0.1:40123": 1234, "127.0.0.1:40124": 77, "127.0.0.1:40125": 3}
	every.Priority, every.HasPriority = 5, true
	every.Birth, every.TTL = time.Unix(1790000000, 42), 5*time.Second
	for _, tc := range []struct {
		name string
		env  *codec.Envelope
	}{{"flat", flat}, {"every-field", &every}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var data []byte
			for i := 0; i < b.N; i++ {
				var err error
				if data, err = codec.Marshal(tc.env); err != nil {
					b.Fatal(err)
				}
				if _, err = codec.Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "bytes/ev")
		})
	}
}

// BenchmarkLazyRoute measures the publisher's per-event destination
// decision straight from an encoded envelope, with 1000 remote
// subscriptions spread across 16 nodes: the materializing path (decode
// the event from its payload, then evaluate the compound routing plan —
// what every wire-encoded event paid before lazy partial decode)
// against the lazy path (extract only the plan's referenced fields from
// the compact payload; the event value is never built). Subscriptions
// filter on the promoted Price field — a structural path the wire
// extractor can resolve from bytes. Part of the dispatch CI family.
func BenchmarkLazyRoute(b *testing.B) {
	const (
		nNodes = 16
		nSubs  = 1000
	)
	for _, sel := range []struct {
		name string
		frac float64
	}{{"sel=1pct", 0.01}, {"sel=10pct", 0.10}} {
		reg := obvent.NewRegistry()
		workload.RegisterTypes(reg)
		class := obvent.TypeName(obvent.TypeOf[workload.StockQuote]())
		tbl := routing.NewTable(reg)
		for n := 0; n < nNodes; n++ {
			var infos []core.SubscriptionInfo
			for i := n; i < nSubs; i += nNodes {
				threshold := (float64(i) + 0.5) * 1000 / nSubs
				data, err := filter.MarshalCanonical(filter.Path("Price").Lt(filter.Float(threshold)))
				if err != nil {
					b.Fatal(err)
				}
				infos = append(infos, core.SubscriptionInfo{
					ID:       fmt.Sprintf("node-%02d/sub-%04d", n, i),
					TypeName: class,
					Filter:   data,
				})
			}
			tbl.ApplySnapshot(fmt.Sprintf("node-%02d", n), 1, infos)
		}
		matches := int(sel.frac * nSubs)
		price := float64(nSubs-matches) * 1000 / nSubs
		q := workload.StockQuote{StockObvent: workload.StockObvent{Company: "Telco Mobiles", Price: price, Amount: 1}}
		c := codec.New(reg)
		env, err := c.Encode(q)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("materialize/subs=%d/%s", nSubs, sel.name), func(b *testing.B) {
			b.ReportAllocs()
			var src codec.CloneSource
			dec := func() any {
				o, err := src.Clone()
				if err != nil {
					return nil
				}
				return o
			}
			dst := make([]string, 0, nNodes)
			var nDests int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SourceInto(env, &src); err != nil {
					b.Fatal(err)
				}
				dst = tbl.Destinations(class, dec, dst[:0])
				nDests = len(dst)
			}
			b.ReportMetric(float64(nDests), "dests/op")
		})
		b.Run(fmt.Sprintf("lazy/subs=%d/%s", nSubs, sel.name), func(b *testing.B) {
			b.ReportAllocs()
			var src codec.CloneSource
			full := func() (any, error) { return src.Clone() }
			dst := make([]string, 0, nNodes)
			var nDests int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SourceInto(env, &src); err != nil {
					b.Fatal(err)
				}
				wp, payload, ok := src.Wire()
				if !ok {
					b.Fatal("envelope is not wire-encoded; the lazy side would silently measure materialization")
				}
				dst = tbl.DestinationsWire(class, wp, payload, full, dst[:0])
				nDests = len(dst)
			}
			st := tbl.Stats()
			b.StopTimer()
			if st.PartialDecodes == 0 {
				b.Fatal("no partial decodes recorded; the plan fell back to materialization")
			}
			b.ReportMetric(float64(nDests), "dests/op")
		})
	}
}

// quoteBook is the pointer-bearing benchmark class: an order book
// snapshot whose clones used to cost a full gob decode each.
type quoteBook struct {
	obvent.Base
	Company string
	Bids    []bookLevel
	Asks    []bookLevel
	Venue   *venueInfo
	Meta    map[string]string
}

type bookLevel struct {
	Price  float64
	Amount int
}

type venueInfo struct {
	Name    string
	Country string
}

// quoteBookRecursive carries the same payload plus a recursive field,
// nil on the wire: a recursive class clones by the same one decode.
type quoteBookRecursive struct {
	obvent.Base
	Company string
	Bids    []bookLevel
	Asks    []bookLevel
	Venue   *venueInfo
	Meta    map[string]string
	Self    *quoteBookRecursive
}

// quoteReading is a Timely class: its TimelyBase's time.Time travels as
// its GobEncode output.
type quoteReading struct {
	obvent.Base
	obvent.TimelyBase
	Company string
	Price   float64
	Amount  int
}

// BenchmarkClonePointerBearing measures per-subscriber cloning of
// classes a value copy cannot clone, each clone one decode of the
// payload: a recursive class, a Timely class, and then whole envelopes
// of quoteBook at 1, 2 and 5 matches. Flat classes are unaffected (they
// share one box per envelope). Part of the dispatch CI family.
func BenchmarkClonePointerBearing(b *testing.B) {
	reg := obvent.NewRegistry()
	reg.MustRegister(quoteBook{})
	reg.MustRegister(quoteBookRecursive{})
	reg.MustRegister(quoteReading{})
	c := codec.New(reg)

	bids := []bookLevel{{99, 10}, {98, 25}, {97, 5}}
	asks := []bookLevel{{101, 8}, {102, 40}}
	venue := &venueInfo{Name: "XETRA", Country: "DE"}
	meta := map[string]string{"session": "open", "tier": "1"}

	for _, tc := range []struct {
		name string
		o    obvent.Obvent
	}{
		{"recursive", quoteBookRecursive{Company: "Telco Mobiles", Bids: bids, Asks: asks, Venue: venue, Meta: meta}},
		{"timely", quoteReading{
			TimelyBase: obvent.TimelyBase{TTL: time.Second, BirthTime: time.Unix(1790000000, 42)},
			Company:    "Telco Mobiles", Price: 80, Amount: 10,
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			env, err := c.Encode(tc.o)
			if err != nil {
				b.Fatal(err)
			}
			src, err := c.Source(env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Clone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// What indexed dispatch pays per envelope of quoteBook: one decode
	// per match.
	env, err := c.Encode(quoteBook{Company: "Telco Mobiles", Bids: bids, Asks: asks, Venue: venue, Meta: meta})
	if err != nil {
		b.Fatal(err)
	}
	for _, matches := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("envelope/matches=%d", matches), func(b *testing.B) {
			var src codec.CloneSource
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.SourceInto(env, &src); err != nil {
					b.Fatal(err)
				}
				for m := 0; m < matches; m++ {
					if _, err := src.Clone(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Sparse multicast: interest-aware ordered classes ---

// BenchmarkSparseMulticast measures frames and bytes on the wire per
// published event for the interest-aware multicast classes at varying
// subscriber density on a 16-node domain. With ordered pruning on (the
// default), wire cost tracks the interested set instead of the group
// size; prunedsends/op and skipframes/op surface how much of the group
// each event avoided.
func BenchmarkSparseMulticast(b *testing.B) {
	const n = 16
	classes := []struct {
		name string
		cfg  dace.Config
		sub  func(e *core.Engine, c *atomic.Int64) error
		pub  func(e *core.Engine, i int) error
	}{
		{
			name: "class=fifo",
			cfg:  dace.Config{Multicast: fastOpts()},
			sub: func(e *core.Engine, c *atomic.Int64) error {
				s, err := core.Subscribe(e, nil, func(q workload.QuoteFIFO) { c.Add(1) })
				if err != nil {
					return err
				}
				return s.Activate()
			},
			pub: func(e *core.Engine, i int) error {
				return core.Publish(e, workload.QuoteFIFO{StockObvent: workload.StockObvent{Company: "Telco", Price: float64(i)}})
			},
		},
		{
			name: "class=total",
			cfg:  dace.Config{Multicast: fastOpts()},
			sub: func(e *core.Engine, c *atomic.Int64) error {
				s, err := core.Subscribe(e, nil, func(q workload.QuoteTotal) { c.Add(1) })
				if err != nil {
					return err
				}
				return s.Activate()
			},
			pub: func(e *core.Engine, i int) error {
				return core.Publish(e, workload.QuoteTotal{StockObvent: workload.StockObvent{Company: "Telco", Price: float64(i)}})
			},
		},
	}
	densities := []struct {
		name string
		subs int
	}{
		{"density=1%", 1},       // 1 of 15 possible subscribers
		{"density=10%", 2},      // ~10%
		{"density=100%", n - 1}, // everyone else
	}
	for _, cl := range classes {
		for _, d := range densities {
			b.Run(cl.name+"/"+d.name, func(b *testing.B) {
				net := netsim.New(netsim.Config{})
				defer net.Close()
				nodes, engines := benchDomain(b, net, n, cl.cfg)
				var got atomic.Int64
				for _, e := range engines[1 : 1+d.subs] {
					if err := cl.sub(e, &got); err != nil {
						b.Fatal(err)
					}
				}
				waitUntil(b, 10*time.Second, func() bool { return nodes[0].RemoteSubscriptionCount() >= d.subs })
				net.Settle()
				net.ResetStats()

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cl.pub(engines[0], i); err != nil {
						b.Fatal(err)
					}
				}
				want := int64(b.N) * int64(d.subs)
				waitUntil(b, 60*time.Second, func() bool { return got.Load() >= want })
				b.StopTimer()
				sent, bytes, _, _ := net.Stats()
				var pruned, skips uint64
				for _, dn := range nodes {
					st := dn.RoutingStats()
					pruned += st.PrunedSends
					skips += st.SkipFrames
				}
				b.ReportMetric(float64(sent)/float64(b.N), "msgs/op")
				b.ReportMetric(float64(bytes)/float64(b.N), "wirebytes/op")
				b.ReportMetric(float64(pruned)/float64(b.N), "prunedsends/op")
				b.ReportMetric(float64(skips)/float64(b.N), "skipframes/op")
			})
		}
	}
}

// --- Durable publish: certified cost under the durability plane ---

// padCertified is a certified event that carries a payload worth
// copying: what the durable path does with Pad's bytes is what the
// pad=1KiB cases and TestCertifiedDurableAllocsPerEvent count.
type padCertified struct {
	obvent.Base
	obvent.CertifiedBase
	Seq int64
	Pad []byte
}

// BenchmarkDurablePublish measures certified publish+deliver cost on a
// two-node domain under three configurations: the default domain with
// no durability (each class's state in memory), and the on-disk plane
// under both sync policies, exposing the fsync-per-record price
// (paper §3.4.1). The pad=1KiB cases publish an event with a 1 KiB
// []byte field, where B/op follows the copies made of it per hop.
func BenchmarkDurablePublish(b *testing.B) {
	syncOpts := func(policy govents.SyncPolicy) func(b *testing.B) []govents.Option {
		return func(b *testing.B) []govents.Option {
			return []govents.Option{
				govents.WithDurability(b.TempDir()),
				govents.WithDurabilityTuning(govents.DurabilityTuning{Sync: policy}),
			}
		}
	}
	none := func(b *testing.B) []govents.Option { return nil }
	cases := []struct {
		name    string
		durable bool // subscribe under a durable identity
		pad     int  // 0: the workload's quote; else a padCertified of that many bytes
		opts    func(b *testing.B) []govents.Option
	}{
		{"durable=off", false, 0, none},
		{"sync=always", true, 0, syncOpts(govents.SyncAlways)},
		{"sync=batch", true, 0, syncOpts(govents.SyncBatch)},
		{"pad=1KiB,durable=off", false, 1024, none},
		{"pad=1KiB,sync=batch", true, 1024, syncOpts(govents.SyncBatch)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			addrs := []string{"node-00", "node-01"}
			domains := make([]*govents.Domain, len(addrs))
			for i, addr := range addrs {
				ep, err := net.NewEndpoint(addr)
				if err != nil {
					b.Fatal(err)
				}
				opts := append([]govents.Option{
					govents.WithTransport(ep),
					// A long retransmit keeps redelivery ticks out of the
					// timed loop; the zero-latency net acks immediately.
					govents.WithTuning(govents.Tuning{RetransmitInterval: 250 * time.Millisecond}),
				}, tc.opts(b)...)
				d, err := govents.Open(ctx, addr, opts...)
				if err != nil {
					b.Fatal(err)
				}
				workload.RegisterTypes(d.Registry())
				d.Registry().MustRegister(padCertified{})
				domains[i] = d
			}
			defer func() {
				for _, d := range domains {
					_ = d.Close(ctx)
				}
			}()
			for _, d := range domains {
				if err := d.SetPeers(addrs...); err != nil {
					b.Fatal(err)
				}
			}

			var got atomic.Int64
			var err error
			switch {
			case tc.pad > 0 && tc.durable:
				_, err = govents.SubscribeDurable(domains[1], "bench-sub", func(padCertified) { got.Add(1) })
			case tc.pad > 0:
				_, err = govents.Subscribe(domains[1], nil, func(padCertified) { got.Add(1) })
			case tc.durable:
				_, err = govents.SubscribeDurable(domains[1], "bench-sub", func(workload.QuoteCertified) { got.Add(1) })
			default:
				_, err = govents.Subscribe(domains[1], nil, func(workload.QuoteCertified) { got.Add(1) })
			}
			if err != nil {
				b.Fatal(err)
			}
			waitUntil(b, 5*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= 1 })
			net.Settle()
			gen := workload.NewQuoteGen(31, 10)
			pad := make([]byte, tc.pad)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ev govents.Obvent = padCertified{Seq: int64(i), Pad: pad}
				if tc.pad == 0 {
					ev = workload.QuoteCertified{StockObvent: gen.Next().StockObvent}
				}
				if err := domains[0].Publish(ctx, ev); err != nil {
					b.Fatal(err)
				}
			}
			want := int64(b.N)
			waitUntil(b, time.Minute, func() bool { return got.Load() >= want })
			b.StopTimer()
		})
	}
}
