package main

import (
	"fmt"
	"path/filepath"
	"time"

	"govents"
)

// hostStats is what the sub-host's Domains and transport wrappers read
// at one instant of a traced run, folded over its Domains.
type hostStats struct {
	Stages        map[string]govents.StageSnapshot
	LaneHighWater int
	Durable       govents.DurableStats
	Boundary      boundary
	Hooks         []hookRecord // records since the previous stats request
}

func (h *subhost) stats() *hostStats {
	st := &hostStats{Hooks: h.trace.take()}
	var spans []*spanTransport
	spans = append(spans, h.spans...)
	st.fold(h.domains, spans)
	return st
}

// fold reads the public read-outs of the given Domains.
func (st *hostStats) fold(domains []*govents.Domain, spans []*spanTransport) {
	st.Stages = map[string]govents.StageSnapshot{}
	for _, d := range domains {
		for name, snap := range d.Histograms() {
			merged := st.Stages[name]
			merged.Merge(snap)
			st.Stages[name] = merged
		}
		for _, l := range d.LaneOccupancies() {
			if l.HighWater > st.LaneHighWater {
				st.LaneHighWater = l.HighWater
			}
		}
		ds := d.DurableStats()
		st.Durable.Bytes += ds.Bytes
		st.Durable.Appends += ds.Appends
		st.Durable.Syncs += ds.Syncs
	}
	for _, s := range spans {
		st.Boundary.add(s.totals())
	}
}

// stageDelta is the histogram of what a stage recorded between two
// snapshots.
func stageDelta(after, before govents.StageSnapshot) govents.StageSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// bothEnds reads the traced read-outs of the publisher and the
// sub-host.
func (r *runner) bothEnds() (pub, sub *hostStats, err error) {
	rep, err := r.host.call(&request{Op: "stats"}, 30*time.Second)
	if err != nil {
		return nil, nil, err
	}
	pub = &hostStats{Hooks: r.hooks.take()}
	var spans []*spanTransport
	if r.pubSpan != nil {
		spans = append(spans, r.pubSpan)
	}
	pub.fold([]*govents.Domain{r.pub}, spans)
	return pub, rep.Stats, nil
}

// runTraced produces the per-layer metrics: an untraced lo and capacity
// phase for the timings, the whole-process numbers and the tracing
// overhead's base, then the traced repeat (telemetry on, trace hook and
// transport spans on both ends), then the layer probes.
func (r *runner) runTraced(seconds float64) (map[string]metric, error) {
	r.traced = false
	if _, err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plainLo, err := r.openLoop("lo", seconds/5, true)
	if err != nil {
		return nil, err
	}
	plain, err := r.closedLoop("capacity", seconds/5)
	if err != nil {
		return nil, err
	}
	r.tearDown()

	r.traced = true
	if _, err := r.setUp(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	pub0, sub0, err := r.bothEnds()
	if err != nil {
		return nil, err
	}
	lo, err := r.openLoop("lo", seconds/5, true)
	if err != nil {
		return nil, err
	}
	pub1, sub1, err := r.bothEnds()
	if err != nil {
		return nil, err
	}
	capa, err := r.closedLoop("capacity", seconds/5)
	if err != nil {
		return nil, err
	}
	pub2, sub2, err := r.bothEnds()
	if err != nil {
		return nil, err
	}
	hooks := append(append(append(pub1.Hooks, sub1.Hooks...), pub2.Hooks...), sub2.Hooks...)
	events, unmatched := joinTrace(r.spans, hooks)
	tracePath := filepath.Join(r.outDir, "trace-"+r.w.Name+".jsonl")
	if err := writeTrace(tracePath, events); err != nil {
		return nil, err
	}
	r.tearDown()

	p, err := newProbe(r.w, r.seed, r.outDir)
	if err != nil {
		return nil, err
	}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	// Per-event call counts of the traced repeat, from the oracle and
	// the transport spans.
	published := float64(lo.Published + capa.Published)
	var firstSends, deliveries float64
	dests, expect := r.w.destsPerKey(), r.w.expectPerKey()
	for _, ph := range []struct {
		phase int32
		n     int64
	}{{r.phase - 1, lo.Published}, {r.phase, capa.Published}} {
		s := newSchedule(r.seed, ph.phase, r.w.Keys)
		for seq := int64(0); seq < ph.n; seq++ {
			k := s.key(seq)
			deliveries += float64(expect[k])
			if r.w.Placement == govents.AtSubscriber {
				firstSends += float64(len(r.w.Subs))
			} else {
				firstSends += float64(dests[k])
			}
		}
	}
	pubB, subB := pub2.Boundary.since(pub0.Boundary), sub2.Boundary.since(sub0.Boundary)
	frames := per(float64(pubB.Sends+subB.Sends), published)
	durBytes := per(float64(pub2.Durable.Bytes-pub0.Durable.Bytes+sub2.Durable.Bytes-sub0.Durable.Bytes), published)
	durSyncs := per(float64(pub2.Durable.Syncs-pub0.Durable.Syncs+sub2.Durable.Syncs-sub0.Durable.Syncs), published)

	cpuUs := cpuPerEvent(plain)
	rows := p.ledger(per(firstSends, published), per(deliveries, published), frames)
	var explained float64
	for _, row := range rows {
		explained += row.Us
	}

	stage := func(after, before *hostStats, name string) govents.StageSnapshot {
		return stageDelta(after.Stages[name], before.Stages[name])
	}
	g := genFidelity(lo)
	calls := append([]int64(nil), lo.CallNs...)
	sortInt64(calls)
	completed := float64(plain.Report.Completed)
	m := map[string]metric{
		"codec.encode_ns":     {p.encode + p.marshal, "ns"},
		"codec.decode_ns":     {p.unmarshal + p.source, "ns"},
		"codec.clone_ns":      {p.clone, "ns"},
		"codec.allocs_per_op": {p.codecAllocs, "count"},
		"codec.payload_bytes": {float64(len(p.frames[0])), "bytes"},

		"routing.destinations_ns": {p.destinations, "ns"},
		"routing.allocs_per_op":   {p.routingAllocs, "count"},
		"routing.pruned_ratio":    {p.pruned, "ratio"},
		"routing.ad_apply_ms":     {p.adApplyMs, "ms"},

		"matching.match_ns":          {p.match, "ns"},
		"matching.matches_per_event": {p.matches, "count"},

		"multicast.broadcast_ns":         {p.broadcast, "ns"},
		"multicast.receive_ns":           {p.receive, "ns"},
		"multicast.allocs_per_msg":       {p.mcastAllocs, "count"},
		"multicast.frames_per_event":     {frames, "count"},
		"multicast.wire_bytes_per_event": {per(float64(pubB.SendBytes+subB.SendBytes), published), "bytes"},
		"multicast.retransmit_ratio":     {per(float64(pubB.Sends)-firstSends, firstSends), "ratio"},

		"dace.publish_ns":              {rowOf(rows, "dace") * 1e3, "ns"},
		"dace.allocs_per_event":        {p.daceAllocs, "count"},
		"dace.publish_to_route_us_p50": {us(stage(pub1, pub0, "publish_to_route").Quantile(0.5)), "us"},

		"transport.send_ns":               {p.send, "ns"},
		"transport.oneway_us_p50":         {p.onewayP50 / 1e3, "us"},
		"transport.oneway_us_p99":         {p.onewayP99 / 1e3, "us"},
		"transport.allocs_per_frame":      {p.frameAllocs, "count"},
		"transport.frame_overhead_bytes":  {p.frameOverhead, "bytes"},
		"transport.send_errors":           {float64(pubB.SendErrs + subB.SendErrs), "count"},
		"transport.route_to_write_us_p50": {us(stage(pub1, pub0, "route_to_write").Quantile(0.5)), "us"},

		"core.dispatch_ns_per_event": {p.dispatchCPU, "ns"},
		"core.allocs_per_match":      {p.allocsPerMatch, "count"},
		"core.wire_to_lane_us_p50":   {us(stage(sub1, sub0, "wire_to_lane").Quantile(0.5)), "us"},
		"core.lane_wait_us_p50":      {us(stage(sub1, sub0, "lane_wait").Quantile(0.5)), "us"},
		"core.lane_wait_us_p99":      {us(stage(sub1, sub0, "lane_wait").Quantile(0.99)), "us"},
		"core.dispatch_us_p50":       {us(stage(sub1, sub0, "dispatch").Quantile(0.5)), "us"},
		"core.lane_depth_max":        {float64(sub2.LaneHighWater), "count"},

		"durable.append_ns":       {p.dAppend, "ns"},
		"durable.stage_ns":        {p.dStage, "ns"},
		"durable.ack_ns":          {p.dAck, "ns"},
		"durable.bytes_per_event": {durBytes, "bytes"},
		"durable.syncs_per_event": {durSyncs, "count"},

		"telemetry.overhead_ratio": {per(capacityEPS(plain), capacityEPS(capa)), "ratio"},
		"telemetry.trace_records":  {float64(len(hooks)), "count"},

		"pub.publish_call_us_p50": {float64(quantile(calls, 0.5)) / 1e3, "us"},
		"pub.allocs_per_event":    {per(float64(plain.PubUse.Mallocs), completed), "count"},
		"pub.cpu_us_per_event":    {per(float64(plain.PubUse.CPUNs), completed) / 1e3, "us"},
		"pub.peak_rss_mb":         {float64(plain.PubUse.MaxRSSKB) / 1024, "MB"},
		"sub.allocs_per_event":    {per(float64(plain.Report.Use.Mallocs), completed), "count"},
		"sub.cpu_us_per_event":    {per(float64(plain.Report.Use.CPUNs), completed) / 1e3, "us"},
		"sub.peak_rss_mb":         {float64(plain.Report.Use.MaxRSSKB) / 1024, "MB"},

		"gen.late_p99_us":       {g.p99us, "us"},
		"gen.late_max_us":       {g.maxus, "us"},
		"gen.late_ratio":        {g.lateRatio, "ratio"},
		"load.capacity_eps":     {capacityEPS(plain), "events/s"},
		"load.cpu_us_per_event": {cpuUs, "us"},
		"load.p50_us.lo":        {plainLo.Report.Latency.P50 / 1e3, "us"},
		"load.p99_us.lo":        {plainLo.Report.Latency.P99Win / 1e3, "us"},
		"load.p999_us.lo":       {plainLo.Report.Latency.P999 / 1e3, "us"},
		"load.failed_ratio":     {per(float64(r.failed), float64(r.attempted)), "ratio"},

		"ledger.explained_ratio": {per(explained, cpuUs), "ratio"},
	}
	for _, row := range rows {
		m["ledger."+row.Layer+"_us"] = metric{row.Us, "us"}
	}

	fmt.Printf("%s: traced lo %d/s: %d samples, generator late p99 %.1f us max %.1f us (%.3f%% over 1 ms)%s; highest supported percentile p%g = %.1f us\n",
		r.w.Name, r.w.LoRate, lo.Report.Latency.Samples, g.p99us, g.maxus, 100*g.lateRatio, g.verdict(),
		100*lo.Report.Latency.Top, lo.Report.Latency.TopNs/1e3)
	fmt.Printf("%s: %d trace-hook records joined to %d events (%d unmatched) -> %s\n",
		r.w.Name, len(hooks), len(events), unmatched, tracePath)
	printSpans(lo, capa, pubB, subB, published)
	printLedger(rows, cpuUs)
	return m, nil
}

func rowOf(rows []layerCost, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.Us
		}
	}
	return 0
}

// printSpans is the traced repeat's own decomposition, wall clock per
// event, self time = span minus the child spans inside it: a Publish
// call contains the transport sends the generator thread makes, a
// receive upcall contains the sends (acknowledgements) it makes.
func printSpans(lo, capa *phaseResult, pubB, subB boundary, published float64) {
	var callNs float64
	for _, ph := range []*phaseResult{lo, capa} {
		for _, c := range ph.CallNs {
			callNs += float64(c)
		}
	}
	perEvent := func(ns float64) float64 { return per(ns, published) / 1e3 }
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	fmt.Println("  traced spans (wall us per event; self = span - child spans):")
	fmt.Printf("    %-28s span %8.2f  self %8.2f\n", "gen.publish_call", perEvent(callNs), pos(perEvent(callNs-float64(pubB.SendNs))))
	fmt.Printf("    %-28s span %8.2f\n", "  pub transport.send", perEvent(float64(pubB.SendNs)))
	fmt.Printf("    %-28s span %8.2f  self %8.2f\n", "sub transport.receive upcall", perEvent(float64(subB.RecvNs)), pos(perEvent(float64(subB.RecvNs-subB.SendNs))))
	fmt.Printf("    %-28s span %8.2f\n", "  sub transport.send (acks)", perEvent(float64(subB.SendNs)))
	fmt.Printf("    %-28s span %8.2f\n", "pub transport.receive upcall", perEvent(float64(pubB.RecvNs)))
}
