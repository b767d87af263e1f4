package govents

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"govents/internal/telemetry"
)

// metricsServer is the HTTP export surface started by WithMetricsAddr:
// hand-written Prometheus text exposition on /metrics, expvar on
// /debug/vars and the runtime profiler on /debug/pprof. It owns its
// listener so ":0" addresses work and Close can unblock Serve.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
	d   *Domain

	mu     sync.Mutex
	closed bool
}

// expvarDomains is the process-wide set of domains exporting through
// /debug/vars. expvar.Publish panics on duplicate names, so the
// "govents" variable is published once and folds in whichever domains
// are currently serving metrics.
var (
	expvarMu      sync.Mutex
	expvarDomains = map[*Domain]bool{}
	expvarOnce    sync.Once
)

func expvarSnapshot() any {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	out := map[string]any{}
	for d := range expvarDomains {
		out[d.Name()] = map[string]any{
			"stats":   d.Stats(),
			"dropped": d.DroppedByReason(),
			"stages":  d.Histograms(),
		}
	}
	return out
}

func startMetricsServer(addr string, d *Domain) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	ms := &metricsServer{ln: ln, d: d}

	// A dedicated mux: mounting pprof on http.DefaultServeMux would
	// leak profiling endpoints into any other server in the process.
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ms.serveMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms.srv = &http.Server{Handler: mux}

	expvarOnce.Do(func() {
		expvar.Publish("govents", expvar.Func(expvarSnapshot))
	})
	expvarMu.Lock()
	expvarDomains[d] = true
	expvarMu.Unlock()

	go func() { _ = ms.srv.Serve(ln) }()
	return ms, nil
}

func (ms *metricsServer) addr() string { return ms.ln.Addr().String() }

func (ms *metricsServer) close() {
	ms.mu.Lock()
	if ms.closed {
		ms.mu.Unlock()
		return
	}
	ms.closed = true
	ms.mu.Unlock()
	expvarMu.Lock()
	delete(expvarDomains, ms.d)
	expvarMu.Unlock()
	_ = ms.srv.Close()
}

// serveMetrics writes the Prometheus text exposition format (version
// 0.0.4) by hand — the repo takes no client-library dependency. Bucket
// counts are cumulative per the format; nanosecond histogram bounds are
// exported in seconds. Empty trailing buckets are elided (per-scrape
// sparse histograms), keeping 64-bucket stages readable.
func (ms *metricsServer) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	node := promEscape(ms.d.Name())

	b.WriteString("# HELP govents_stage_latency_seconds Per-stage pipeline latency.\n")
	b.WriteString("# TYPE govents_stage_latency_seconds histogram\n")
	stages := ms.d.Histograms()
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := stages[name]
		base := fmt.Sprintf(`node=%q,stage=%q`, node, name)
		var cum uint64
		top := len(snap.Buckets) - 1
		for top > 0 && snap.Buckets[top] == 0 {
			top--
		}
		for i := 0; i <= top; i++ {
			cum += snap.Buckets[i]
			if snap.Buckets[i] == 0 && i != top {
				continue
			}
			le := float64(telemetry.BucketBound(i)) / 1e9
			fmt.Fprintf(&b, "govents_stage_latency_seconds_bucket{%s,le=%q} %d\n",
				base, fmt.Sprintf("%g", le), cum)
		}
		fmt.Fprintf(&b, "govents_stage_latency_seconds_bucket{%s,le=\"+Inf\"} %d\n", base, snap.Count)
		fmt.Fprintf(&b, "govents_stage_latency_seconds_sum{%s} %g\n", base, float64(snap.Sum)/1e9)
		fmt.Fprintf(&b, "govents_stage_latency_seconds_count{%s} %d\n", base, snap.Count)
	}

	st := ms.d.Stats()
	b.WriteString("# HELP govents_events_total Cumulative dispatch counters.\n")
	b.WriteString("# TYPE govents_events_total counter\n")
	for _, c := range []struct {
		kind string
		v    uint64
	}{
		{"in", st.EventsIn},
		{"delivered", st.Delivered},
	} {
		fmt.Fprintf(&b, "govents_events_total{node=%q,kind=%q} %d\n", node, c.kind, c.v)
	}

	b.WriteString("# HELP govents_dropped_total Events dropped, by reason.\n")
	b.WriteString("# TYPE govents_dropped_total counter\n")
	dropped := ms.d.DroppedByReason()
	reasons := make([]string, 0, len(dropped))
	for reason := range dropped {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, "govents_dropped_total{node=%q,reason=%q} %d\n", node, promEscape(reason), dropped[reason])
	}

	b.WriteString("# HELP govents_lane_depth Dispatch lane occupancy (LaneStat.Queued).\n")
	b.WriteString("# TYPE govents_lane_depth gauge\n")
	for _, l := range ms.d.LaneStats() {
		fmt.Fprintf(&b, "govents_lane_depth{node=%q,lane=\"%d\"} %d\n", node, l.Lane, l.Queued)
	}

	_, _ = w.Write([]byte(b.String()))
}

// promEscape sanitizes a label value (quotes and backslashes are the
// only characters the %q verb does not already handle per the format).
func promEscape(s string) string {
	return strings.NewReplacer("\n", `\n`).Replace(s)
}
