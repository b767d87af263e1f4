// Command loadgen regenerates the experiment series of EXPERIMENTS.md:
// for each experiment it runs the workload sweep and prints one table
// of rows. The paper's evaluation is qualitative (it publishes no
// measurement tables); these experiments validate each of its
// performance claims on the simulated substrate — see DESIGN.md §4.
//
// The whole harness runs on the public govents API: domains over the
// simulated network, public filter/workload/matching packages, and the
// baseline abstractions (topics, content, tuple space, RMI).
//
// Usage:
//
//	loadgen            # run all experiments
//	loadgen -exp C1    # run one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govents"
	"govents/content"
	"govents/filter"
	"govents/matching"
	"govents/netsim"
	"govents/rmi"
	"govents/tuplespace"
	"govents/workload"
)

var ctx = context.Background()

// defaultPlacement is the filter placement experiments use unless they
// pin one explicitly (set by -placement).
var defaultPlacement = govents.AtSubscriber

// showMetrics makes closeAll print each run's folded per-stage latency
// quantiles (set by -metrics).
var showMetrics = false

func main() {
	exp := flag.String("exp", "all", "experiment to run: C1, C2, C3, C4, C5, C6, C7, C8, C9, C10 or all")
	placement := flag.String("placement", "subscriber", "default remote filter placement: subscriber or publisher")
	metrics := flag.Bool("metrics", false, "print per-stage latency quantiles (p50/p90/p99/max) after each run")
	flag.Parse()
	showMetrics = *metrics

	switch *placement {
	case "subscriber":
		defaultPlacement = govents.AtSubscriber
	case "publisher":
		defaultPlacement = govents.AtPublisher
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -placement %q (want subscriber or publisher)\n", *placement)
		os.Exit(2)
	}

	experiments := map[string]func(){
		"C1": expC1, "C2": expC2, "C3": expC3,
		"C4": expC4, "C5": expC5, "C6": expC6,
		"C7": expC7, "C8": expC8, "C9": expC9,
		"C10": expC10,
	}
	if *exp == "all" {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			experiments[n]()
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "loadgen: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn()
}

func fastTuning() govents.Tuning {
	return govents.Tuning{RetransmitInterval: 5 * time.Millisecond, GossipPeriod: 3 * time.Millisecond}
}

// domain builds n connected govents domains over a netsim network.
func domain(net *netsim.Network, n int, opts ...govents.Option) []*govents.Domain {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%02d", i)
	}
	domains := make([]*govents.Domain, n)
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			panic(err)
		}
		all := append([]govents.Option{
			govents.WithTransport(ep),
			govents.WithPlacement(defaultPlacement),
			govents.WithTuning(fastTuning()),
		}, opts...)
		d, err := govents.Open(ctx, addr, all...)
		if err != nil {
			panic(err)
		}
		workload.RegisterTypes(d.Registry())
		domains[i] = d
	}
	for _, d := range domains {
		if err := d.SetPeers(addrs...); err != nil {
			panic(err)
		}
	}
	return domains
}

func closeAll(domains []*govents.Domain) {
	if showMetrics {
		printStageQuantiles(domains)
	}
	for _, d := range domains {
		_ = d.Close(ctx)
	}
}

// stageOrder lists the pipeline stages in flow order for printing.
var stageOrder = []string{"publish_to_route", "route_to_write", "wire_to_lane", "lane_wait", "dispatch", "e2e"}

// printStageQuantiles folds the per-stage latency histograms of all
// domains in a run and prints one quantile row per populated stage.
func printStageQuantiles(domains []*govents.Domain) {
	folded := map[string]govents.StageSnapshot{}
	for _, d := range domains {
		for name, snap := range d.Histograms() {
			merged := folded[name]
			merged.Merge(snap)
			folded[name] = merged
		}
	}
	fmt.Printf("    %-18s %10s %12s %12s %12s %12s\n", "stage", "count", "p50", "p90", "p99", "max")
	for _, name := range stageOrder {
		snap := folded[name]
		if snap.Count == 0 {
			continue
		}
		fmt.Printf("    %-18s %10d %12v %12v %12v %12v\n",
			name, snap.Count, snap.Quantile(0.5), snap.Quantile(0.9), snap.Quantile(0.99),
			time.Duration(snap.Max))
	}
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// --- C1: filter placement & factoring (paper §2.3.2) ---

func expC1() {
	fmt.Println("\n== C1a: remote (publisher-side) vs local (subscriber-side) filtering ==")
	fmt.Println("claim: migrating filters to the publisher saves network messages (§2.3.2)")
	fmt.Printf("%-12s %14s %14s %8s\n", "selectivity", "msgs@subscr", "msgs@publshr", "saving")

	for _, selectivity := range []float64{0.01, 0.10, 0.50, 1.00} {
		run := func(p govents.Placement) (int64, govents.RoutingStats, govents.DispatchStats) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			domains := domain(net, 2, govents.WithPlacement(p))
			defer closeAll(domains)

			var got atomic.Int64
			threshold := 1000 * selectivity // prices uniform in [1,1000)
			f := filter.Path("GetPrice").Lt(filter.Float(threshold))
			if _, err := govents.Subscribe(domains[1], f, func(q workload.StockQuote) { got.Add(1) }); err != nil {
				panic(err)
			}
			waitUntil(5*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= 1 })
			net.Settle()
			net.ResetStats()

			gen := workload.NewQuoteGen(1, 20)
			const quotes = 200
			want := int64(0)
			for i := 0; i < quotes; i++ {
				q := gen.Next()
				if q.Price < threshold {
					want++
				}
				_ = domains[0].Publish(ctx, q)
			}
			waitUntil(10*time.Second, func() bool { return got.Load() == want })
			net.Settle()
			sent, _, _, _ := net.Stats()
			return sent, domains[0].RoutingStats(), domains[0].Stats()
		}
		atSub, _, _ := run(govents.AtSubscriber)
		atPub, rst, dst := run(govents.AtPublisher)
		fmt.Printf("%-12.2f %14d %14d %7.1f%%\n", selectivity, atSub, atPub, 100*(1-float64(atPub)/float64(atSub)))
		fmt.Printf("             routing@publisher: events=%d compound-evals=%d pruned=%d fallback=%d plans=%d ads=%d partial-decodes=%d materializations=%d\n",
			rst.EventsRouted, rst.CompoundEvals, rst.NodesPruned, rst.FallbackEvals, rst.PlansCompiled, rst.AdsApplied,
			rst.PartialDecodes, rst.WireMaterializations)
		fmt.Printf("             wire@publisher:    encodes=%d gob-encodes=%d\n",
			dst.WireEncodes, dst.GobPayloadEncodes)
	}

	fmt.Println("\n== C1b: compound filter factoring ([ASS+99]) ==")
	fmt.Println("claim: factoring redundant filters of many subscribers improves matching")
	fmt.Printf("%-8s %12s %12s %8s %12s\n", "subs", "naive ns/ev", "compound", "speedup", "uniqueconds")
	gen := workload.NewQuoteGen(2, 20)
	for _, subs := range []int{10, 100, 1000} {
		c := matching.New()
		for i, spec := range gen.Interests(subs) {
			if err := c.Add(fmt.Sprintf("s%04d", i), spec.Filter()); err != nil {
				panic(err)
			}
		}
		q := gen.Next()
		const evs = 2000
		start := time.Now()
		for i := 0; i < evs; i++ {
			c.MatchNaive(q)
		}
		naive := time.Since(start).Nanoseconds() / evs
		start = time.Now()
		for i := 0; i < evs; i++ {
			c.Match(q)
		}
		compound := time.Since(start).Nanoseconds() / evs
		st := c.Stats()
		fmt.Printf("%-8d %12d %12d %7.1fx %6d/%d\n", subs, naive, compound,
			float64(naive)/float64(compound), st.UniqueConds, st.TotalConds)
	}
}

// --- C2: cost of delivery semantics (paper §3.1.2) ---

func expC2() {
	fmt.Println("\n== C2: cost of composable delivery semantics (§3.1.2) ==")
	fmt.Println("claim: stronger semantics cost more; the application pays only for what the type requests")
	fmt.Printf("%-12s %14s %14s\n", "semantics", "events/sec", "wire msgs/ev")

	publish := map[string]func(d *govents.Domain, q workload.StockObvent) error{
		"unreliable": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.StockQuote{StockObvent: q})
		},
		"reliable": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.QuoteReliable{StockObvent: q})
		},
		"fifo": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.QuoteFIFO{StockObvent: q})
		},
		"causal": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.QuoteCausal{StockObvent: q})
		},
		"total": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.QuoteTotal{StockObvent: q})
		},
		"certified": func(d *govents.Domain, q workload.StockObvent) error {
			return d.Publish(ctx, workload.QuoteCertified{StockObvent: q})
		},
	}
	order := []string{"unreliable", "reliable", "fifo", "causal", "total", "certified"}

	for _, sem := range order {
		net := netsim.New(netsim.Config{})
		domains := domain(net, 4)

		var got atomic.Int64
		for _, d := range domains[1:] {
			if _, err := govents.Subscribe(d, nil, func(o workload.StockObvent) { got.Add(1) }); err != nil {
				panic(err)
			}
		}
		waitUntil(5*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= 3 })
		net.Settle()
		net.ResetStats()

		gen := workload.NewQuoteGen(3, 10)
		const events = 200
		want := int64(events * 3)
		start := time.Now()
		for i := 0; i < events; i++ {
			if err := publish[sem](domains[0], gen.Next().StockObvent); err != nil {
				panic(err)
			}
		}
		ok := waitUntil(30*time.Second, func() bool { return got.Load() >= want })
		elapsed := time.Since(start)
		net.Settle()
		sent, _, _, _ := net.Stats()
		rate := float64(events) / elapsed.Seconds()
		if !ok {
			fmt.Printf("%-12s INCOMPLETE (%d/%d)\n", sem, got.Load(), want)
		} else {
			fmt.Printf("%-12s %14.0f %14.1f\n", sem, rate, float64(sent)/events)
		}
		closeAll(domains)
		_ = net.Close()
	}
}

// --- C3: gossip scalability (paper §4.2, [EGH+01]) ---

func expC3() {
	fmt.Println("\n== C3: gossip dissemination vs group size under 20% loss ==")
	fmt.Println("claim: gossip delivers with high probability at per-node cost independent of group size")
	fmt.Printf("%-8s %14s %14s %16s\n", "nodes", "delivery%", "msgs/node", "reliable msgs/node")

	for _, n := range []int{8, 16, 32, 64} {
		// Gossip run.
		gossipRatio, gossipMsgs := gossipRun(n, true)
		// Reliable unicast-fanout run (publisher pays O(n) + retries).
		_, relMsgs := gossipRun(n, false)
		fmt.Printf("%-8d %13.1f%% %14.1f %16.1f\n", n, gossipRatio*100, gossipMsgs, relMsgs)
	}
}

func gossipRun(n int, gossip bool) (ratio float64, msgsPerNode float64) {
	net := netsim.New(netsim.Config{LossRate: 0.2, Seed: int64(n)})
	defer net.Close()
	tuning := fastTuning()
	// lpbcast-style provisioning: fanout ~ log2(n)+2, generous rounds —
	// per-node cost still stays flat while delivery probability holds.
	tuning.GossipFanout = 2
	for m := n; m > 1; m /= 2 {
		tuning.GossipFanout++
	}
	tuning.GossipRounds = 12
	opts := []govents.Option{govents.WithTuning(tuning)}
	if gossip {
		opts = append(opts, govents.WithGossipUnreliable())
	}
	domains := domain(net, n, opts...)
	defer closeAll(domains)

	var got atomic.Int64
	for _, d := range domains[1:] {
		var err error
		if gossip {
			_, err = govents.Subscribe(d, nil, func(q workload.StockQuote) { got.Add(1) })
		} else {
			_, err = govents.Subscribe(d, nil, func(q workload.QuoteReliable) { got.Add(1) })
		}
		if err != nil {
			panic(err)
		}
	}
	waitUntil(10*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= n-1 })
	net.Settle()
	net.ResetStats()

	gen := workload.NewQuoteGen(5, 5)
	const events = 10
	for i := 0; i < events; i++ {
		if gossip {
			_ = domains[0].Publish(ctx, gen.Next())
		} else {
			_ = domains[0].Publish(ctx, workload.QuoteReliable{StockObvent: gen.Next().StockObvent})
		}
	}
	want := int64(events * (n - 1))
	waitUntil(15*time.Second, func() bool { return got.Load() >= want })
	net.Settle()
	sent, _, _, _ := net.Stats()
	return float64(got.Load()) / float64(want), float64(sent) / float64(events) / float64(n)
}

// --- C4: subscription-scheme baselines (paper §2.3.2, §5, §6) ---

func expC4() {
	fmt.Println("\n== C4: matching cost across subscription schemes ==")
	fmt.Println("claim: type-based+filters buys content selectivity at modest cost over topics;")
	fmt.Println("       tuple spaces and attribute maps are weakly typed baselines")
	fmt.Printf("%-22s %14s\n", "scheme (1000 subs)", "ns/event")

	const subs = 1000
	gen := workload.NewQuoteGen(7, 20)
	specs := gen.Interests(subs)
	q := gen.Next()
	const evs = 2000

	// Type-based + compound filters (this paper).
	comp := matching.New()
	for i, s := range specs {
		_ = comp.Add(fmt.Sprintf("s%d", i), s.Filter())
	}
	start := time.Now()
	for i := 0; i < evs; i++ {
		comp.Match(q)
	}
	fmt.Printf("%-22s %14d\n", "type-based+compound", time.Since(start).Nanoseconds()/evs)

	// Topic-based: company as topic; price selectivity inexpressible.
	// The sibling abstractions hang off one local domain facade.
	local, err := govents.Open(ctx, "c4-baselines")
	if err != nil {
		panic(err)
	}
	defer local.Close(ctx)
	tb := local.Topics()
	for _, s := range specs {
		_, _ = tb.Subscribe("stocks."+s.Company, func(string, any) {})
	}
	start = time.Now()
	for i := 0; i < evs; i++ {
		tb.Publish("stocks."+q.Company, q)
	}
	fmt.Printf("%-22s %14d   (cannot express price predicate)\n", "topic-based", time.Since(start).Nanoseconds()/evs)

	// Content-based attribute maps.
	cb := content.New()
	for _, s := range specs {
		_, _ = cb.Subscribe([]content.Pred{
			{Attr: "company", Op: content.Eq, Val: s.Company},
			{Attr: "price", Op: content.Lt, Val: s.MaxPrice},
		}, func(content.Event) {})
	}
	ev := content.Event{"company": q.Company, "price": q.Price, "amount": q.Amount}
	start = time.Now()
	for i := 0; i < evs; i++ {
		cb.Publish(ev)
	}
	fmt.Printf("%-22s %14d   (encapsulation broken: raw attributes)\n", "content attr-value", time.Since(start).Nanoseconds()/evs)

	// Tuple space notify.
	ts := local.TupleSpace()
	for _, s := range specs {
		// Template matching has no range predicates: only exact
		// values/types (paper §5.1.2), so subscribe to the company
		// only.
		ts.Notify(tuplespace.Template{tuplespace.Val(s.Company), tuplespace.Type[float64]()}, func(tuplespace.Tuple) {})
	}
	start = time.Now()
	for i := 0; i < evs; i++ {
		_ = ts.Out(tuplespace.Tuple{q.Company, q.Price})
	}
	fmt.Printf("%-22s %14d   (templates: no range predicates)\n", "tuple space", time.Since(start).Nanoseconds()/evs)
}

// --- C5: thread policies (paper §3.3.5) ---

func expC5() {
	fmt.Println("\n== C5: handler thread policies under blocking handlers ==")
	fmt.Println("claim: multi-threading raises throughput for blocking handlers; single-threading serializes")
	fmt.Printf("%-16s %14s\n", "policy", "events/sec")

	for _, policy := range []string{"single", "multi(4)", "multi(unbounded)"} {
		d, err := govents.Open(ctx, "c5")
		if err != nil {
			panic(err)
		}
		const events = 64
		var wg sync.WaitGroup
		wg.Add(events)
		sub, err := govents.SubscribeInactive(d, nil, func(q workload.StockQuote) {
			time.Sleep(2 * time.Millisecond) // simulated I/O
			wg.Done()
		})
		if err != nil {
			panic(err)
		}
		switch policy {
		case "single":
			sub.SetSingleThreading()
		case "multi(4)":
			sub.SetMultiThreading(4)
		default:
			sub.SetMultiThreading(0)
		}
		if err := sub.Activate(); err != nil {
			panic(err)
		}
		gen := workload.NewQuoteGen(11, 5)
		start := time.Now()
		for i := 0; i < events; i++ {
			_ = d.Publish(ctx, gen.Next())
		}
		wg.Wait()
		fmt.Printf("%-16s %14.0f\n", policy, events/time.Since(start).Seconds())
		_ = d.Close(ctx)
	}
}

// --- C6: RMI vs publish/subscribe fanout (paper §5.4) ---

func expC6() {
	fmt.Println("\n== C6: notifying N receivers: RMI loop vs one publish ==")
	fmt.Println("claim: pub/sub scales to many receivers; RPC couples the sender to each receiver")
	fmt.Printf("%-8s %16s %16s\n", "N", "rmi ms/round", "pubsub ms/round")

	for _, n := range []int{1, 4, 16, 64} {
		rmiMs := rmiFanout(n)
		psMs := pubsubFanout(n)
		fmt.Printf("%-8d %16.2f %16.2f\n", n, rmiMs, psMs)
	}
}

func rmiFanout(n int) float64 {
	net := netsim.New(netsim.Config{MinLatency: 200 * time.Microsecond, MaxLatency: 400 * time.Microsecond})
	defer net.Close()
	callerEp, _ := net.NewEndpoint("caller")
	caller := rmi.New(callerEp, rmi.Options{})
	defer caller.Close()

	proxies := make([]*rmi.Proxy, n)
	for i := 0; i < n; i++ {
		ep, _ := net.NewEndpoint(fmt.Sprintf("recv-%02d", i))
		rt := rmi.New(ep, rmi.Options{})
		defer rt.Close()
		if err := rt.Bind("sink", &sink{}); err != nil {
			panic(err)
		}
		proxies[i] = caller.Dial(ep.Addr(), "sink")
	}

	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		// Synchronous RPC to every receiver, one by one (the paper's
		// point: the invoker blocks per receiver).
		for _, p := range proxies {
			if err := p.Call("Notify", []any{"quote", 80.0}); err != nil {
				panic(err)
			}
		}
	}
	return float64(time.Since(start).Milliseconds()) / rounds
}

// sink is the RMI receiver.
type sink struct{}

// Notify accepts a notification.
func (s *sink) Notify(what string, price float64) {}

func pubsubFanout(n int) float64 {
	net := netsim.New(netsim.Config{MinLatency: 200 * time.Microsecond, MaxLatency: 400 * time.Microsecond})
	defer net.Close()
	domains := domain(net, n+1)
	defer closeAll(domains)
	var got atomic.Int64
	for _, d := range domains[1:] {
		if _, err := govents.Subscribe(d, nil, func(q workload.QuoteReliable) { got.Add(1) }); err != nil {
			panic(err)
		}
	}
	waitUntil(10*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= n })

	const rounds = 20
	gen := workload.NewQuoteGen(13, 5)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		want := got.Load() + int64(n)
		_ = domains[0].Publish(ctx, workload.QuoteReliable{StockObvent: gen.Next().StockObvent})
		waitUntil(10*time.Second, func() bool { return got.Load() >= want })
	}
	return float64(time.Since(start).Milliseconds()) / rounds
}

// --- C7: interest-aware sparse multicast (ordered & gossip classes) ---

func expC7() {
	fmt.Println("\n== C7: sparse interest: routing-aware ordered & gossip multicast ==")
	fmt.Println("claim: with pruning on (default), ordered/gossip wire cost tracks the interested set, not the group size")
	fmt.Printf("%-8s %-8s %12s %14s %8s %14s %13s\n", "class", "density", "msgs/ev", "msgs/ev(off)", "saving", "pruned-sends", "skip-frames")

	const n = 16
	for _, class := range []string{"fifo", "total", "gossip"} {
		for _, subs := range []int{1, 2, n - 1} {
			pruned, rst := sparseRun(class, n, subs, true)
			full, _ := sparseRun(class, n, subs, false)
			fmt.Printf("%-8s %3d/%-4d %12.1f %14.1f %7.1f%% %14d %13d\n",
				class, subs, n-1, pruned, full, 100*(1-pruned/full), rst.PrunedSends, rst.SkipFrames)
		}
	}
}

// sparseRun publishes one class to a domain where only `subs` of the
// n-1 other nodes subscribed, returning wire messages per event and the
// folded pruning counters (FIFO/causal prune at the publisher, total
// order at the sequencer).
func sparseRun(class string, n, subs int, prune bool) (msgsPerEvent float64, rst govents.RoutingStats) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	opts := []govents.Option{govents.WithOrderedPruning(prune)}
	if class == "gossip" {
		opts = append(opts, govents.WithGossipUnreliable())
	}
	domains := domain(net, n, opts...)
	defer closeAll(domains)

	var got atomic.Int64
	for _, d := range domains[1 : 1+subs] {
		var err error
		switch class {
		case "fifo":
			_, err = govents.Subscribe(d, nil, func(q workload.QuoteFIFO) { got.Add(1) })
		case "total":
			_, err = govents.Subscribe(d, nil, func(q workload.QuoteTotal) { got.Add(1) })
		default:
			_, err = govents.Subscribe(d, nil, func(q workload.StockQuote) { got.Add(1) })
		}
		if err != nil {
			panic(err)
		}
	}
	waitUntil(10*time.Second, func() bool { return domains[0].RemoteSubscriptionCount() >= subs })
	net.Settle()
	net.ResetStats()

	gen := workload.NewQuoteGen(17, 5)
	const events = 50
	for i := 0; i < events; i++ {
		q := gen.Next().StockObvent
		var err error
		switch class {
		case "fifo":
			err = domains[0].Publish(ctx, workload.QuoteFIFO{StockObvent: q})
		case "total":
			err = domains[0].Publish(ctx, workload.QuoteTotal{StockObvent: q})
		default:
			err = domains[0].Publish(ctx, workload.StockQuote{StockObvent: q})
		}
		if err != nil {
			panic(err)
		}
	}
	want := int64(events * subs)
	waitUntil(30*time.Second, func() bool { return got.Load() >= want })
	net.Settle()
	sent, _, _, _ := net.Stats()
	for _, d := range domains {
		st := d.RoutingStats()
		rst.PrunedSends += st.PrunedSends
		rst.SkipFrames += st.SkipFrames
	}
	return float64(sent) / events, rst
}

// --- C8: per-stage pipeline latency (telemetry plane) ---

func expC8() {
	fmt.Println("\n== C8: per-stage pipeline latency across two nodes ==")
	fmt.Println("claim: the telemetry plane decomposes delivery latency into pipeline stages;")
	fmt.Println("       end-to-end ~ publish-side + wire + lane-wait + dispatch")
	fmt.Printf("%-10s %-18s %10s %12s %12s %12s %12s\n", "class", "stage", "count", "p50", "p90", "p99", "max")

	for _, class := range []string{"unreliable", "fifo"} {
		net := netsim.New(netsim.Config{MinLatency: 200 * time.Microsecond, MaxLatency: 400 * time.Microsecond})
		domains := domain(net, 2)
		pub, sub := domains[0], domains[1]

		var got atomic.Int64
		var err error
		if class == "fifo" {
			_, err = govents.Subscribe(sub, nil, func(q workload.QuoteFIFO) { got.Add(1) })
		} else {
			_, err = govents.Subscribe(sub, nil, func(q workload.StockQuote) { got.Add(1) })
		}
		if err != nil {
			panic(err)
		}
		waitUntil(5*time.Second, func() bool { return pub.RemoteSubscriptionCount() >= 1 })
		net.Settle()

		gen := workload.NewQuoteGen(23, 5)
		const events = 500
		for i := 0; i < events; i++ {
			q := gen.Next().StockObvent
			if class == "fifo" {
				err = pub.Publish(ctx, workload.QuoteFIFO{StockObvent: q})
			} else {
				err = pub.Publish(ctx, workload.StockQuote{StockObvent: q})
			}
			if err != nil {
				panic(err)
			}
		}
		waitUntil(30*time.Second, func() bool { return got.Load() >= events })
		net.Settle()

		pubStages, subStages := pub.Histograms(), sub.Histograms()
		for _, name := range stageOrder {
			snap := pubStages[name]
			if sub := subStages[name]; sub.Count > snap.Count {
				snap = sub // wire/lane/dispatch/e2e live on the subscriber
			}
			if snap.Count == 0 {
				continue
			}
			fmt.Printf("%-10s %-18s %10d %12v %12v %12v %12v\n",
				class, name, snap.Count, snap.Quantile(0.5), snap.Quantile(0.9), snap.Quantile(0.99),
				time.Duration(snap.Max))
		}
		closeAll(domains)
		_ = net.Close()
	}
}

// --- C9: durable subscriptions: crash, catch-up, resume (paper §3.1.2, §3.4.1) ---

func expC9() {
	fmt.Println("\n== C9: durable subscriptions: crash, catch-up, resume ==")
	fmt.Println("claim: a durable identity recovers every certified event published while its host was")
	fmt.Println("       down — across a publisher crash too — and catch-up cost tracks the missed backlog")
	fmt.Printf("%-8s %8s %10s %10s %12s %12s\n", "sync", "missed", "caught", "staged", "catch-up", "per-event")

	for _, pol := range []struct {
		name string
		sync govents.SyncPolicy
	}{{"always", govents.SyncAlways}, {"batch", govents.SyncBatch}} {
		for _, missed := range []int{50, 200, 800} {
			caught, staged, catchUp := durableRun(pol.sync, missed)
			fmt.Printf("%-8s %8d %10d %10d %12v %12v\n",
				pol.name, missed, caught, staged, catchUp.Round(time.Microsecond),
				(catchUp / time.Duration(missed)).Round(time.Microsecond))
		}
	}
}

// durableRun publishes a warm-up batch to a live durable subscriber,
// crashes the subscriber, publishes `missed` more certified events,
// crash-restarts the publisher (the owed backlog must come back from
// its recovered outbox), then restarts the subscriber under the same
// durable identity and times the catch-up until every missed event has
// been delivered.
func durableRun(sync govents.SyncPolicy, missed int) (caught int64, staged uint64, catchUp time.Duration) {
	dir, err := os.MkdirTemp("", "loadgen-c9-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	g, err := govents.OpenGroup(ctx, 2, govents.GroupConfig{
		Durability: dir,
		Options: func(i int, addr string) []govents.Option {
			return []govents.Option{
				govents.WithTuning(fastTuning()),
				govents.WithDurabilityTuning(govents.DurabilityTuning{Sync: sync}),
			}
		},
	})
	if err != nil {
		panic(err)
	}
	defer g.Close(ctx)

	var got atomic.Int64
	subscribe := func(d *govents.Domain) {
		if _, err := govents.SubscribeDurable(d, "c9-sub", func(q workload.QuoteCertified) { got.Add(1) }); err != nil {
			panic(err)
		}
	}
	subscribe(g.Domain(1))
	if !waitUntil(10*time.Second, func() bool { return g.Domain(0).RemoteSubscriptionCount() >= 1 }) {
		panic("C9: subscription ad never reached the publisher")
	}

	gen := workload.NewQuoteGen(29, 5)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := g.Domain(0).Publish(ctx, workload.QuoteCertified{StockObvent: gen.Next().StockObvent}); err != nil {
				panic(err)
			}
		}
	}

	const warm = 5
	publish(warm)
	if !waitUntil(10*time.Second, func() bool { return got.Load() >= warm }) {
		panic("C9: warm-up batch never delivered")
	}

	// Subscriber down: the backlog accumulates, owed to its durable
	// identity, in the publisher's on-disk outbox.
	if err := g.Crash(ctx, 1); err != nil {
		panic(err)
	}
	publish(missed)

	// The publisher crashes too; the backlog must survive on disk.
	if err := g.Crash(ctx, 0); err != nil {
		panic(err)
	}
	if _, err := g.Restart(ctx, 0); err != nil {
		panic(err)
	}

	d1, err := g.Restart(ctx, 1)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	subscribe(d1)
	total := int64(warm + missed)
	if !waitUntil(time.Minute, func() bool { return got.Load() >= total }) {
		panic(fmt.Sprintf("C9: caught only %d of %d after restart", got.Load(), total))
	}
	catchUp = time.Since(start)
	g.Settle()
	return got.Load() - warm, d1.DurableStats().Staged, catchUp
}

// --- C10: overload resilience: bounded lanes, policies, slow consumers ---

func expC10() {
	fmt.Println("\n== C10: overload: hot publisher + wedged consumer under each policy ==")
	fmt.Println("claim: bounded lanes degrade explicitly — Block backpressures losslessly, DropOldest")
	fmt.Println("       sheds newest-preserving, Spill overflows to disk and recovers — while the")
	fmt.Println("       wedged consumer is quarantined and never blocks its co-hosted subscriptions")
	fmt.Printf("%-12s %8s %10s %8s %8s %8s %8s %12s %12s\n",
		"policy", "sent", "delivered", "shed", "spilled", "quarant", "drops", "e2e-p50", "e2e-p99")

	for _, pol := range []struct {
		name   string
		policy govents.OverloadPolicy
	}{
		{"block", govents.OverloadBlock},
		{"drop-oldest", govents.OverloadDropOldest},
		{"spill", govents.OverloadSpill},
	} {
		r := overloadRun(pol.policy)
		fmt.Printf("%-12s %8d %10d %8d %8d %8d %8d %12v %12v\n",
			pol.name, r.sent, r.delivered, r.shed, r.spilled, r.quarantines, r.slowDrops,
			r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond))
	}

	fmt.Println("\n== C10b: late-joining durable subscriber: returning identity vs old log ==")
	fmt.Println("claim: a returning durable identity backfills its whole owed log before going live,")
	fmt.Println("       at a cost tracking the log size; a fresh identity owes no history and joins")
	fmt.Println("       in constant time regardless of how old the log is")
	fmt.Printf("%8s %10s %12s %12s %12s\n", "log", "backfilled", "backfill", "per-event", "fresh-join")
	for _, logSize := range []int{100, 400, 1600} {
		caught, backfill, freshJoin := lateJoinRun(logSize)
		fmt.Printf("%8d %10d %12v %12v %12v\n",
			logSize, caught, backfill.Round(time.Microsecond),
			(backfill / time.Duration(logSize)).Round(time.Microsecond),
			freshJoin.Round(time.Microsecond))
	}
}

type overloadResult struct {
	sent, delivered        int
	shed, spilled          uint64
	quarantines, slowDrops uint64
	p50, p99               time.Duration
}

// overloadRun drives one hot-publisher burst at a consumer node hosting
// a wedged (never-returning) subscription next to a healthy one, with
// bounded lanes under the given policy, and reports the shed/spill
// accounting plus the healthy subscription's end-to-end latency.
func overloadRun(policy govents.OverloadPolicy) overloadResult {
	const burst = 4000
	net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 10})
	defer net.Close()

	newNode := func(addr string, opts ...govents.Option) *govents.Domain {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			panic(err)
		}
		d, err := govents.Open(ctx, addr, append([]govents.Option{
			govents.WithTransport(ep), govents.WithTuning(fastTuning()),
		}, opts...)...)
		if err != nil {
			panic(err)
		}
		workload.RegisterTypes(d.Registry())
		return d
	}

	conOpts := []govents.Option{
		govents.WithTelemetry(true),
		govents.WithDispatchLanes(4),
		govents.WithLaneQueueBound(256),
		govents.WithOverloadPolicy(policy),
		govents.WithSlowConsumerBudget(5*time.Millisecond, 256),
	}
	if policy == govents.OverloadSpill {
		dir, err := os.MkdirTemp("", "loadgen-c10-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		conOpts = append(conOpts, govents.WithDurability(dir))
	}
	pub := newNode("node-00")
	con := newNode("node-01", conOpts...)
	defer pub.Close(ctx)
	defer con.Close(ctx)
	for _, d := range []*govents.Domain{pub, con} {
		if err := d.SetPeers("node-00", "node-01"); err != nil {
			panic(err)
		}
	}

	release := make(chan struct{})
	defer close(release)
	wedged, err := govents.Subscribe(con, nil, func(q workload.QuoteReliable) { <-release })
	if err != nil {
		panic(err)
	}
	wedged.SetSingleThreading()
	var got atomic.Int64
	if _, err := govents.Subscribe(con, nil, func(q workload.QuoteReliable) { got.Add(1) }); err != nil {
		panic(err)
	}
	if !waitUntil(10*time.Second, func() bool { return pub.RemoteSubscriptionCount() >= 2 }) {
		panic("C10: subscription ads never reached the publisher")
	}

	gen := workload.NewQuoteGen(31, 5)
	for i := 0; i < burst; i++ {
		if err := pub.Publish(ctx, workload.QuoteReliable{StockObvent: gen.Next().StockObvent}); err != nil {
			panic(err)
		}
	}

	// Wait for the lanes to drain fully (memory and spill). Under the
	// lossless policies that means every event reached the healthy
	// subscription; under DropOldest the survivors did.
	if !waitUntil(time.Minute, func() bool {
		for _, l := range con.LaneStats() {
			if l.Queued != 0 || l.SpillBacklog != 0 {
				return false
			}
		}
		st := con.Stats()
		return got.Load()+int64(st.Shed) >= burst
	}) {
		panic(fmt.Sprintf("C10: lanes never drained under %v: got=%d stats=%+v",
			policy, got.Load(), con.Stats()))
	}

	st := con.Stats()
	r := overloadResult{
		sent: burst, delivered: int(got.Load()),
		shed: st.Shed, spilled: st.Spilled,
		quarantines: st.Quarantines, slowDrops: st.SlowConsumerDrops,
	}
	if e2e, ok := con.Histograms()["e2e"]; ok && e2e.Count > 0 {
		r.p50, r.p99 = e2e.Quantile(0.5), e2e.Quantile(0.99)
	}
	return r
}

// lateJoinRun builds an old certified log of logSize events — fully
// consumed by a resident durable subscriber while a second durable
// identity sits deactivated, owed everything — then times (a) the
// returning identity's synchronous backfill of the whole log and (b) a
// brand-new identity's join, which owes no history and goes live
// immediately (a fresh cursor starts at the log head by design).
func lateJoinRun(logSize int) (caught int64, backfill, freshJoin time.Duration) {
	dir, err := os.MkdirTemp("", "loadgen-c10b-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	g, err := govents.OpenGroup(ctx, 2, govents.GroupConfig{
		Durability: dir,
		Options: func(i int, addr string) []govents.Option {
			return []govents.Option{govents.WithTuning(fastTuning())}
		},
	})
	if err != nil {
		panic(err)
	}
	defer g.Close(ctx)

	var resident atomic.Int64
	if _, err := govents.SubscribeDurable(g.Domain(1), "resident", func(q workload.QuoteCertified) {
		resident.Add(1)
	}); err != nil {
		panic(err)
	}
	// The late joiner claims its identity up front (creating its durable
	// cursor), then leaves before anything is published.
	var late atomic.Int64
	lateSub, err := govents.SubscribeDurable(g.Domain(1), "late-joiner", func(q workload.QuoteCertified) {
		late.Add(1)
	})
	if err != nil {
		panic(err)
	}
	if err := lateSub.Deactivate(); err != nil {
		panic(err)
	}
	if !waitUntil(10*time.Second, func() bool { return g.Domain(0).RemoteSubscriptionCount() >= 1 }) {
		panic("C10b: subscription ad never reached the publisher")
	}

	gen := workload.NewQuoteGen(37, 5)
	for i := 0; i < logSize; i++ {
		if err := g.Domain(0).Publish(ctx, workload.QuoteCertified{StockObvent: gen.Next().StockObvent}); err != nil {
			panic(err)
		}
	}
	if !waitUntil(time.Minute, func() bool { return resident.Load() >= int64(logSize) }) {
		panic(fmt.Sprintf("C10b: resident consumed only %d of %d", resident.Load(), logSize))
	}

	// The identity returns: SubscribeDurable replays the whole owed log
	// synchronously before the subscription goes live.
	start := time.Now()
	if _, err := govents.SubscribeDurable(g.Domain(1), "late-joiner", func(q workload.QuoteCertified) {
		late.Add(1)
	}); err != nil {
		panic(err)
	}
	if !waitUntil(time.Minute, func() bool { return late.Load() >= int64(logSize) }) {
		panic(fmt.Sprintf("C10b: late joiner backfilled only %d of %d", late.Load(), logSize))
	}
	backfill = time.Since(start)

	// A brand-new identity against the same old log: no owed history, so
	// the join is log-size independent.
	start = time.Now()
	if _, err := govents.SubscribeDurable(g.Domain(1), "fresh", func(q workload.QuoteCertified) {}); err != nil {
		panic(err)
	}
	freshJoin = time.Since(start)
	g.Settle()
	return late.Load(), backfill, freshJoin
}
