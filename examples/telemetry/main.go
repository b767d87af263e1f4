// Telemetry: the observability plane on the public govents API — the
// per-stage latency histograms every Domain records, sampled per-event
// tracing (WithTraceHook), drop-reason accounting, the injectable
// diagnostics logger (WithLogger), and the HTTP metrics surface
// (WithMetricsAddr: Prometheus text on /metrics, expvar, pprof).
//
// The workload publishes timely sensor readings (one pre-expired, so a
// drop shows up with its reason) and one reading whose handler panics
// (recovered, counted, logged) — then prints what the plane saw.
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"govents"
	"govents/obvent"
)

// SensorReading is a timely obvent: stale readings are worthless and
// must be dropped rather than delivered (TTL).
type SensorReading struct {
	obvent.Base
	obvent.TimelyBase
	Sensor string
	Value  float64
}

func main() {
	ctx := context.Background()

	// Every trace event the plane emits lands here: delivered events
	// are sampled (1 in 2), failure outcomes always fire.
	var tmu sync.Mutex
	var traces []govents.TraceEvent
	d, err := govents.Open(ctx, "telemetry",
		govents.WithMetricsAddr("127.0.0.1:0"),
		govents.WithTraceHook(func(ev govents.TraceEvent) {
			tmu.Lock()
			traces = append(traces, ev)
			tmu.Unlock()
		}, 2),
		govents.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))),
	)
	must(err)
	defer d.Close(ctx)
	fmt.Printf("metrics surface: http://%s/metrics\n", d.MetricsAddr())

	var mu sync.Mutex
	delivered := 0
	_, err = govents.Subscribe(d, nil, func(r SensorReading) {
		mu.Lock()
		delivered++
		mu.Unlock()
		if r.Sensor == "broken" {
			panic("sensor handler exploded") // recovered, counted, logged
		}
	})
	must(err)

	// One pre-expired reading (dropped with reason "expired"), one
	// whose handler panics, and a healthy stream.
	must(d.Publish(ctx, SensorReading{
		TimelyBase: obvent.TimelyBase{TTL: time.Millisecond, BirthTime: time.Now().Add(-time.Second)},
		Sensor:     "stale", Value: 1,
	}))
	must(d.Publish(ctx, SensorReading{
		TimelyBase: obvent.TimelyBase{TTL: time.Minute},
		Sensor:     "broken", Value: 2,
	}))
	for i := 0; i < 40; i++ {
		must(d.Publish(ctx, SensorReading{
			TimelyBase: obvent.TimelyBase{TTL: time.Minute},
			Sensor:     fmt.Sprintf("probe-%02d", i), Value: float64(i),
		}))
	}
	waitUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered >= 41 // all but the expired reading
	})

	// The per-stage latency histograms: publish→deliver decomposed.
	fmt.Printf("%-12s %8s %12s %12s %12s\n", "stage", "count", "p50", "p99", "max")
	stages := d.Histograms()
	for _, name := range []string{"lane_wait", "dispatch", "e2e"} {
		snap := stages[name]
		fmt.Printf("%-12s %8d %12v %12v %12v\n",
			name, snap.Count, snap.Quantile(0.5), snap.Quantile(0.99), time.Duration(snap.Max))
	}

	// Drop accounting: the expired reading and the recovered panic.
	dropped := d.DroppedByReason()
	reasons := make([]string, 0, len(dropped))
	for r, n := range dropped {
		if n > 0 {
			reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
		}
	}
	sort.Strings(reasons)
	fmt.Printf("dropped: %v\n", reasons)
	if dropped["expired"] != 1 || dropped["handler_panic"] != 1 {
		panic("expected exactly one expired and one handler_panic drop")
	}

	// Traces: sampled delivered spans plus the always-on failure spans.
	tmu.Lock()
	byOutcome := map[string]int{}
	for _, ev := range traces {
		byOutcome[ev.Outcome]++
	}
	tmu.Unlock()
	fmt.Printf("traces: delivered=%d (sampled 1-in-2) expired=%d handler_panic=%d\n",
		byOutcome["delivered"], byOutcome["expired"], byOutcome["handler_panic"])
	if byOutcome["expired"] != 1 || byOutcome["handler_panic"] != 1 {
		panic("failure outcomes must bypass trace sampling")
	}

	// The same numbers, scraped over HTTP in Prometheus text format.
	resp, err := http.Get("http://" + d.MetricsAddr() + "/metrics")
	must(err)
	body, err := io.ReadAll(resp.Body)
	must(err)
	_ = resp.Body.Close()
	for _, line := range []string{
		`govents_dropped_total{node="telemetry",reason="expired"} 1`,
		`govents_dropped_total{node="telemetry",reason="handler_panic"} 1`,
	} {
		if !strings.Contains(string(body), line) {
			panic("scrape missing " + line)
		}
	}
	fmt.Println("telemetry: ok")
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
		time.Sleep(time.Millisecond)
	}
	panic("timeout")
}
