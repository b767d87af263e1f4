// Command loadgen prints the experiment tables that the root package's
// benchmarks (bench_test.go) do not: sparse-interest multicast (C7),
// per-stage pipeline latency (C8), durable crash/catch-up/resume (C9)
// and overload resilience (C10), each as one table of rows from a
// workload sweep. Experiments C1-C6 (filter placement and factoring,
// delivery-semantics cost, gossip, subscription-scheme baselines,
// thread policies, RMI fanout) are BenchmarkC1... to BenchmarkC6...
// there: go test -run '^$' -bench 'BenchmarkC[1-6]' .
//
// The whole harness runs on the public govents API: domains over the
// simulated network and the public workload package.
//
// Usage:
//
//	loadgen             # run all experiments
//	loadgen -exp C7     # run one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"govents"
	"govents/netsim"
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
	exp := flag.String("exp", "all", "experiment to run: C7, C8, C9, C10 or all")
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
		"C7": expC7, "C8": expC8, "C9": expC9, "C10": expC10,
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
