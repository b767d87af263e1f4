// Command stocknode runs one govents domain member over real TCP
// sockets: a publisher streaming synthetic stock quotes or a subscriber
// with a migratable price/company filter. It demonstrates the full
// public API — Domain, DACE dissemination, multicast protocols, TCP
// transport — outside the simulator.
//
// Start a subscriber, then a publisher:
//
//	stocknode -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002 \
//	          -mode sub -max-price 100 -company Company-001
//	stocknode -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002 \
//	          -mode pub -count 50
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"govents"
	"govents/filter"
	"govents/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stocknode:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7001", "TCP listen address")
	peersFlag := flag.String("peers", "", "comma-separated peer addresses (including self)")
	mode := flag.String("mode", "sub", "pub or sub")
	count := flag.Int("count", 20, "pub: quotes to publish")
	rate := flag.Duration("rate", 50*time.Millisecond, "pub: publish interval")
	maxPrice := flag.Float64("max-price", 0, "sub: only quotes cheaper than this (0 = all)")
	company := flag.String("company", "", "sub: only quotes for this company (empty = all)")
	seed := flag.Int64("seed", 42, "pub: workload seed")
	lanes := flag.Int("lanes", 0, "parallel dispatch lanes (0 = GOMAXPROCS)")
	placementFlag := flag.String("placement", "publisher", "remote filter placement: subscriber or publisher")
	adTTL := flag.Duration("ad-ttl", 0, "ad-stream GC TTL (0 = disabled; set uniformly on all nodes)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address and print per-stage latency quantiles on exit (empty = off)")
	flag.Parse()

	ctx := context.Background()

	var placement govents.Placement
	switch *placementFlag {
	case "publisher":
		placement = govents.AtPublisher
	case "subscriber":
		placement = govents.AtSubscriber
	default:
		return fmt.Errorf("unknown -placement %q (want subscriber or publisher)", *placementFlag)
	}

	tr, err := govents.ListenTCP(*listen)
	if err != nil {
		return err
	}
	peers := []string{tr.Addr()}
	if *peersFlag != "" {
		peers = strings.Split(*peersFlag, ",")
	}

	opts := []govents.Option{
		govents.WithTransport(tr),
		govents.WithPeers(peers...),
		govents.WithPlacement(placement),
		govents.WithDispatchLanes(*lanes),
		govents.WithAdTTL(*adTTL),
	}
	if *metricsAddr != "" {
		opts = append(opts, govents.WithMetricsAddr(*metricsAddr))
	}
	d, err := govents.Open(ctx, tr.Addr(), opts...)
	if err != nil {
		return err
	}
	defer d.Close(ctx)
	if *metricsAddr != "" {
		fmt.Printf("metrics: http://%s/metrics\n", d.MetricsAddr())
		defer printStageLatencies(d)
	}
	workload.RegisterTypes(d.Registry())
	fmt.Printf("stocknode: %s mode=%s peers=%v\n", d.Addr(), *mode, peers)

	switch *mode {
	case "pub":
		// Give subscription advertisements a moment to arrive.
		time.Sleep(300 * time.Millisecond)
		gen := workload.NewQuoteGen(*seed, 10)
		for i := 0; i < *count; i++ {
			q := gen.Next()
			if err := d.Publish(ctx, q); err != nil {
				return err
			}
			fmt.Printf("published %-12s %8.2f x%-3d\n", q.Company, q.Price, q.Amount)
			time.Sleep(*rate)
		}
		// Let retransmissions drain.
		time.Sleep(300 * time.Millisecond)
		printRoutingStats(d)
		return nil

	case "sub":
		var conj []*filter.Expr
		if *maxPrice > 0 {
			conj = append(conj, filter.Path("GetPrice").Lt(filter.Float(*maxPrice)))
		}
		if *company != "" {
			conj = append(conj, filter.Path("GetCompany").Eq(filter.Str(*company)))
		}
		var f *filter.Expr
		if len(conj) > 0 {
			f = filter.And(conj...)
		}
		sub, err := govents.Subscribe(d, f, func(q workload.StockQuote) {
			fmt.Printf("received  %-12s %8.2f x%-3d\n", q.Company, q.Price, q.Amount)
		})
		if err != nil {
			return err
		}
		fmt.Println("subscribed; ctrl-c to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		st := d.Stats()
		fmt.Printf("dispatch: lanes=%d in=%d delivered=%d expired=%d decode-errors=%d panics=%d\n",
			d.DispatchLanes(), st.EventsIn, st.Delivered, st.Expired, st.DecodeErrors, st.HandlerPanics)
		fmt.Printf("wire: compiles=%d rejects=%d encodes=%d decodes=%d\n",
			st.WireCompiles, st.WireRejects, st.WireEncodes, st.WireDecodes)
		for _, l := range d.LaneStats() {
			fmt.Printf("  lane %-3d routed=%-6d dispatched=%-6d delivered=%-6d queued=%d high-water=%d\n",
				l.Lane, l.Enqueued, l.Stats.EventsIn, l.Stats.Delivered, l.Queued, l.HighWater)
		}
		printRoutingStats(d)
		return sub.Deactivate()

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// printStageLatencies dumps the telemetry plane's per-stage latency
// quantiles in pipeline order, skipping stages that never ran.
func printStageLatencies(d *govents.Domain) {
	stages := d.Histograms()
	fmt.Printf("stage latencies: %-18s %10s %10s %10s %10s %10s\n",
		"", "count", "p50", "p90", "p99", "max")
	for _, name := range []string{"publish_to_route", "route_to_write", "wire_to_lane", "lane_wait", "dispatch", "e2e"} {
		snap := stages[name]
		if snap.Count == 0 {
			continue
		}
		fmt.Printf("  %-32s %10d %10v %10v %10v %10v\n",
			name, snap.Count, snap.Quantile(0.5), snap.Quantile(0.9), snap.Quantile(0.99),
			time.Duration(snap.Max))
	}
	dropped := d.DroppedByReason()
	reasons := make([]string, 0, len(dropped))
	for reason := range dropped {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	fmt.Printf("dropped:")
	for _, reason := range reasons {
		fmt.Printf(" %s=%d", reason, dropped[reason])
	}
	fmt.Println()
}

// printRoutingStats dumps the domain's routing-plane counters, overall
// and broken out per obvent class.
func printRoutingStats(d *govents.Domain) {
	st := d.RoutingStats()
	fmt.Printf("routing: ads-applied=%d ads-stale=%d ads-heartbeat=%d ads-rejected=%d nodes-expired=%d plans=%d events=%d compound-evals=%d pruned=%d fallback=%d\n",
		st.AdsApplied, st.AdsStale, st.AdsRefreshed, st.AdsRejected, st.NodesExpired, st.PlansCompiled,
		st.EventsRouted, st.CompoundEvals, st.NodesPruned, st.FallbackEvals)
	byClass := d.RoutingStatsByClass()
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := byClass[c]
		if cs.EventsRouted == 0 {
			continue
		}
		fmt.Printf("  %-40s events=%-6d compound-evals=%-6d pruned=%-6d fallback=%d\n",
			c, cs.EventsRouted, cs.CompoundEvals, cs.NodesPruned, cs.FallbackEvals)
	}
}
