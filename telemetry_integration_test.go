// Telemetry-plane integration at the public API: per-stage latency
// histograms populated across two simulated-network nodes, the
// Prometheus/expvar scrape surface, trace-hook outcomes (delivered and
// handler panic), drop-reason counters, and the telemetry-off switch.
package govents_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/netsim"
	"govents/obvent"
	"govents/workload"
)

// openTelemetryPair opens a publisher and subscriber domain on one
// simulated network, the subscriber with extra options.
func openTelemetryPair(t *testing.T, subOpts ...govents.Option) (pub, sub *govents.Domain) {
	t.Helper()
	ctx := context.Background()
	net := netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 11})
	t.Cleanup(func() { _ = net.Close() })

	open := func(addr string, extra ...govents.Option) *govents.Domain {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]govents.Option{
			govents.WithTransport(ep),
			govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
		}, extra...)
		d, err := govents.Open(ctx, addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close(context.Background()) })
		workload.RegisterTypes(d.Registry())
		return d
	}
	pub, sub = open("pub"), open("sub", subOpts...)
	for _, d := range []*govents.Domain{pub, sub} {
		if err := d.SetPeers("pub", "sub"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pub.RemoteSubscriptionCount() < 0 {
		time.Sleep(time.Millisecond)
	}
	return pub, sub
}

// publishAndAwait publishes n quotes on pub and waits until the counter
// reaches n.
func publishAndAwait(t *testing.T, pub *govents.Domain, n int, count func() int) {
	t.Helper()
	ctx := context.Background()
	gen := workload.NewQuoteGen(3, 4)
	for i := 0; i < n; i++ {
		if err := pub.Publish(ctx, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && count() < n {
		time.Sleep(time.Millisecond)
	}
	if got := count(); got < n {
		t.Fatalf("delivered %d of %d events", got, n)
	}
}

// TestE2EHistogramAcrossNodes publishes across two simulated-network
// nodes and requires every pipeline stage to have recorded: the
// publisher-side routing and write stages, the subscriber-side wire,
// lane-wait and dispatch stages, and the cross-node end-to-end stage
// timed against the envelope's publish stamp — with nonzero quantiles.
func TestE2EHistogramAcrossNodes(t *testing.T) {
	pub, sub := openTelemetryPair(t)

	var mu sync.Mutex
	delivered := 0
	s, err := govents.Subscribe(sub, nil, func(q workload.StockQuote) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s }()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pub.RemoteSubscriptionCount() < 1 {
		time.Sleep(time.Millisecond)
	}

	const n = 50
	publishAndAwait(t, pub, n, func() int {
		mu.Lock()
		defer mu.Unlock()
		return delivered
	})

	// The subscriber records the dispatch and e2e stages once the
	// handler has returned, so the handler's count can run ahead of
	// theirs: give them until the deadline to catch up.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if h := sub.Histograms(); h["dispatch"].Count >= n && h["e2e"].Count >= n {
			break
		}
	}

	pubStages := pub.Histograms()
	for _, stage := range []string{"publish_to_route", "route_to_write"} {
		snap := pubStages[stage]
		if snap.Count < n {
			t.Errorf("publisher stage %s: count %d, want >= %d", stage, snap.Count, n)
		}
	}
	subStages := sub.Histograms()
	for _, stage := range []string{"wire_to_lane", "lane_wait", "dispatch", "e2e"} {
		snap := subStages[stage]
		if snap.Count < n {
			t.Errorf("subscriber stage %s: count %d, want >= %d", stage, snap.Count, n)
			continue
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v := snap.Quantile(q); v <= 0 {
				t.Errorf("subscriber stage %s: p%.0f = %d ns, want > 0", stage, q*100, v)
			}
		}
	}
	high := 0
	for _, l := range sub.LaneStats() {
		high = max(high, l.HighWater)
	}
	if high == 0 {
		t.Error("no subscriber lane shows a high-water mark after deliveries")
	}
}

// TestMetricsScrape opens the subscriber with a metrics endpoint and
// scrapes it: /metrics must expose the stage histograms, event counters,
// every drop reason and lane gauges in Prometheus text format,
// /debug/vars the expvar JSON including the govents variable.
func TestMetricsScrape(t *testing.T) {
	pub, sub := openTelemetryPair(t, govents.WithMetricsAddr("127.0.0.1:0"))
	addr := sub.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr is empty with WithMetricsAddr set")
	}

	var mu sync.Mutex
	delivered := 0
	if _, err := govents.Subscribe(sub, nil, func(q workload.StockQuote) {
		mu.Lock()
		delivered++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pub.RemoteSubscriptionCount() < 1 {
		time.Sleep(time.Millisecond)
	}
	publishAndAwait(t, pub, 20, func() int {
		mu.Lock()
		defer mu.Unlock()
		return delivered
	})

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE govents_stage_latency_seconds histogram",
		`govents_stage_latency_seconds_bucket{node="sub",stage="dispatch"`,
		`govents_stage_latency_seconds_bucket{node="sub",stage="e2e"`,
		`le="+Inf"`,
		`govents_stage_latency_seconds_count{node="sub",stage="e2e"}`,
		`govents_events_total{node="sub",kind="delivered"}`,
		"# TYPE govents_lane_depth gauge",
		`govents_dropped_total{node="sub",reason="expired"}`,
		`govents_dropped_total{node="sub",reason="decode_error"}`,
		`govents_dropped_total{node="sub",reason="handler_panic"}`,
		`govents_dropped_total{node="sub",reason="executor_closed"}`,
		`govents_dropped_total{node="sub",reason="overload_shed"}`,
		`govents_dropped_total{node="sub",reason="slow_consumer"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n--- scrape:\n%s", want, metrics)
		}
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"govents"`) || !strings.Contains(vars, `"sub"`) {
		t.Errorf("/debug/vars missing govents export:\n%s", vars)
	}

	// After Close the endpoint must be down.
	if err := sub.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}

// panicQuote triggers a handler panic on a chosen key.
const panicAmount = 3

// TestTraceHookOutcomes installs an unsampled trace hook on a local
// domain and requires one delivered trace per event plus a
// handler_panic outcome — which must bypass sampling — and the matching
// drop-reason counter.
func TestTraceHookOutcomes(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var events []govents.TraceEvent
	d, err := govents.Open(ctx, "local-traced",
		govents.WithTraceHook(func(ev govents.TraceEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	workload.RegisterTypes(d.Registry())

	var wg sync.WaitGroup
	if _, err := govents.Subscribe(d, nil, func(q workload.StockQuote) {
		defer wg.Done()
		if q.Amount == panicAmount {
			panic("handler exploded")
		}
	}); err != nil {
		t.Fatal(err)
	}

	gen := workload.NewQuoteGen(5, 2)
	const n = 6
	for i := 0; i < n; i++ {
		q := gen.Next()
		q.Amount = i
		wg.Add(1)
		if err := d.Publish(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		total := len(events)
		mu.Unlock()
		if total >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	var deliveredTraces, panicTraces int
	for _, ev := range events {
		switch ev.Outcome {
		case "delivered":
			deliveredTraces++
		case "handler_panic":
			panicTraces++
		}
	}
	mu.Unlock()
	if deliveredTraces != n-1 {
		t.Errorf("delivered traces = %d, want %d", deliveredTraces, n-1)
	}
	if panicTraces != 1 {
		t.Errorf("handler_panic traces = %d, want 1", panicTraces)
	}
	if got := d.DroppedByReason()["handler_panic"]; got != 1 {
		t.Errorf("DroppedByReason[handler_panic] = %d, want 1", got)
	}
	if d.Stats().HandlerPanics != 1 {
		t.Errorf("HandlerPanics = %d, want 1", d.Stats().HandlerPanics)
	}
}

// TestTelemetryOff proves WithTelemetry(false) silences the histograms
// without touching delivery.
func TestTelemetryOff(t *testing.T) {
	ctx := context.Background()
	d, err := govents.Open(ctx, "local-quiet", govents.WithTelemetry(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	workload.RegisterTypes(d.Registry())

	var wg sync.WaitGroup
	if _, err := govents.Subscribe(d, nil, func(q workload.StockQuote) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQuoteGen(9, 2)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := d.Publish(ctx, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// A delivery is counted after its handler was handed the event, which
	// may be after the handler returned.
	waitFor(t, "Delivered = 10", func() bool { return d.Stats().Delivered == 10 })
	for stage, snap := range d.Histograms() {
		if snap.Count != 0 {
			t.Errorf("stage %s recorded %d samples with telemetry off", stage, snap.Count)
		}
	}
}

// Classes whose events TestTraceNamesAnEventAlike traces.
type (
	tracedFIFO struct {
		obvent.Base
		obvent.FIFOOrderBase
		N int
	}
	tracedBestEffort struct {
		obvent.Base
		N int
	}
	tracedTotal struct {
		obvent.Base
		obvent.TotalOrderBase
		N int
	}
)

// TestTraceNamesAnEventAlike: an event's name is rendered for the trace
// hook only, and alike wherever it is delivered. Two domains over netsim
// both subscribe to a FIFO, a best-effort and a total-order class; the
// publisher is not the sequencer, so its total-order events reach both
// domains relayed. Each event's delivered spans carry one EventID at the
// publisher and at the subscriber, and no two events share one.
func TestTraceNamesAnEventAlike(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 5})
	defer net.Close()
	var mu sync.Mutex
	ids := map[string]map[string]string{} // node -> "class/N" -> EventID
	addrs := []string{"a-sequencer", "b-publisher"}
	domains := make([]*govents.Domain, len(addrs))
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := govents.Open(ctx, addr, govents.WithTransport(ep), govents.WithPeers(addrs...),
			govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
			govents.WithTraceHook(func(ev govents.TraceEvent) {
				if ev.Outcome != "delivered" {
					t.Errorf("%s: a %s span of %s", ev.Node, ev.Outcome, ev.Class)
				}
				mu.Lock()
				defer mu.Unlock()
				if ids[ev.Node] == nil {
					ids[ev.Node] = map[string]string{}
				}
				ids[ev.Node][ev.Class+"/"+ev.EventID] = ev.EventID
			}, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(ctx)
		domains[i] = d
	}
	const n = 20
	var delivered atomic.Int64
	for _, d := range domains {
		for _, err := range []error{
			subscribeCount[tracedFIFO](d, &delivered),
			subscribeCount[tracedBestEffort](d, &delivered),
			subscribeCount[tracedTotal](d, &delivered),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "the subscription ads", func() bool {
		return domains[0].RemoteSubscriptionCount() >= 3 && domains[1].RemoteSubscriptionCount() >= 3
	})
	pub := domains[1]
	for i := range n {
		for _, o := range []govents.Obvent{tracedFIFO{N: i}, tracedBestEffort{N: i}, tracedTotal{N: i}} {
			if err := pub.Publish(ctx, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "every delivery", func() bool { return delivered.Load() == 2*3*n })
	waitFor(t, "every span", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ids[addrs[0]]) == 3*n && len(ids[addrs[1]]) == 3*n
	})
	mu.Lock()
	defer mu.Unlock()
	for key, id := range ids[addrs[1]] {
		if ids[addrs[0]][key] != id {
			t.Errorf("the publisher traced %s, the subscriber has no span of that name", key)
		}
		if len(id) != 32 {
			t.Errorf("EventID %q is not a name's text", id)
		}
	}
}

// subscribeCount subscribes to T at d, counting deliveries.
func subscribeCount[T govents.Obvent](d *govents.Domain, n *atomic.Int64) error {
	_, err := govents.Subscribe(d, nil, func(T) { n.Add(1) })
	return err
}
