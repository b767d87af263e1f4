package govents

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"

	"govents/internal/clock"
	"govents/internal/core"
	"govents/internal/dace"
	"govents/internal/durable"
	"govents/internal/multicast"
	"govents/internal/obvent"
	"govents/internal/rmi"
	"govents/internal/routing"
	"govents/internal/telemetry"
	"govents/internal/topics"
	"govents/internal/tuplespace"
)

// Obvent is the interface of all publishable values: any struct
// embedding obvent.Base satisfies it (see govents/obvent).
type Obvent = obvent.Obvent

// DispatchStats are a domain's cumulative delivery counters (events
// in, delivered, and each kind of drop: expired, decode errors,
// recovered handler panics, closed executors, sheds and slow-consumer
// drops), folded across dispatch lanes.
type DispatchStats = core.DispatchStats

// LaneStat is one dispatch lane's routing and delivery counters.
type LaneStat = core.LaneStat

// RoutingStats are a distributed domain's routing-plane counters:
// advertisement ingestion (applied / stale / deferred / heartbeats),
// plan compilation, per-event compound evaluations, pruned
// destinations, and silent-TTL node expiries.
type RoutingStats = routing.Stats

// TraceEvent is one sampled per-event trace record delivered to a
// WithTraceHook callback: event identity, pipeline stage, measured
// duration and outcome.
type TraceEvent = telemetry.TraceEvent

// StageSnapshot is an immutable snapshot of one pipeline stage's
// latency histogram: total count, sum, max and the log-bucketed counts,
// with Quantile and Mean accessors.
type StageSnapshot = telemetry.Snapshot

// LaneOccupancy is the former name of LaneStat, whose Queued and
// HighWater are the lane's depth gauges.
//
// Deprecated: use LaneStat.
type LaneOccupancy = LaneStat

// DurableStats are the cumulative counters of a domain's durability
// plane (WithDurability): segment-log sizes and append/sync/compaction
// activity, inbox staging and replay counts, folded over all certified
// classes.
type DurableStats = durable.Stats

// A Domain is one process's membership in a govents domain: the unified
// facade over the publish/subscribe engine, the DACE dissemination
// substrate, publisher-side routing, and the sibling abstractions of
// the paper (tuple space, topics, RMI), all sharing one type registry.
//
// A Domain opened without a transport is local: publications loop back
// to in-process subscriptions only. With WithTransport it joins the
// distributed domain reachable over that transport. All methods are
// safe for concurrent use.
type Domain struct {
	name string
	reg  *obvent.Registry
	eng  *core.Engine
	node *dace.Node       // nil for local domains
	dur  *durable.Manager // nil without WithDurability
	tele *telemetry.Plane
	log  *slog.Logger

	tr      Transport      // owned; nil for local domains
	rmiRT   *rmi.Runtime   // nil for local domains
	metrics *metricsServer // nil unless WithMetricsAddr

	// retain is the retention pass (never armed unless
	// DurabilityTuning.Retention set an interval).
	retain clock.Job

	mu        sync.Mutex
	ts        *tuplespace.Space
	topics    *topics.Bus
	durClaims map[string]bool // active durable IDs, keyed class+"\x00"+id
	closed    bool
	closeDone chan struct{} // closed when background shutdown finishes
	closeErr  error         // valid once closeDone is closed
}

// Open creates a Domain named name. The name identifies the domain
// member in stats, subscription IDs and (for local domains) envelope
// publisher stamps; distributed domains use the transport address on
// the wire. Open is synchronous and fast; ctx is consulted for early
// cancellation.
//
// Obvent classes are registered lazily on first Publish or Subscribe of
// a type; classes a process only ever receives (e.g. subtypes published
// elsewhere and subscribed here through a supertype) must be registered
// explicitly with Register so inbound envelopes can be decoded.
func Open(ctx context.Context, name string, opts ...Option) (*Domain, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	fail := func(err error) (*Domain, error) {
		// Ownership of the transport transferred at WithTransport; a
		// failed Open must not leak it.
		if cfg.transport != nil {
			_ = cfg.transport.Close()
		}
		return nil, fmt.Errorf("govents: open %q: %w", name, err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if cfg.transport == nil {
		// Distribution-only options must not be dropped silently: a
		// forgotten WithTransport would otherwise discard, e.g., the
		// certified stable storage without any error.
		if bad := cfg.distributedOnly(); len(bad) > 0 {
			return fail(fmt.Errorf("%s require(s) WithTransport", strings.Join(bad, ", ")))
		}
	}
	if cfg.policy == OverloadSpill && cfg.durDir == "" {
		// Spill needs a durability directory to host the per-lane
		// overflow logs; silently degrading to a lossy policy would
		// betray the "delivery does not degrade" promise of Spill.
		return fail(fmt.Errorf("WithOverloadPolicy(OverloadSpill) requires WithDurability"))
	}
	reg := cfg.registry
	if reg == nil {
		reg = obvent.NewRegistry()
	}
	d := &Domain{name: name, reg: reg}

	// One telemetry plane and one logger span the whole stack: the
	// engine's dispatch lanes, the dissemination substrate and the
	// metrics endpoint all observe the same state.
	d.tele = telemetry.NewPlane()
	d.tele.SetNode(name)
	if cfg.teleOff {
		d.tele.SetEnabled(false)
	}
	if cfg.traceHook != nil {
		d.tele.SetTraceHook(cfg.traceHook, cfg.traceEvery)
	}
	log := cfg.logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	} else if tr, ok := cfg.transport.(interface{ SetLogger(*slog.Logger) }); ok {
		tr.SetLogger(log) // a TCP transport's bad-frame warnings
	}
	d.log = log

	engOpts := []core.Option{
		core.WithRegistry(reg),
		core.WithTelemetry(d.tele),
		core.WithEngineLogger(log),
	}
	if cfg.lanes != 0 {
		engOpts = append(engOpts, core.WithDispatchLanes(cfg.lanes))
	}
	if cfg.naive {
		engOpts = append(engOpts, core.WithNaiveDispatch())
	}
	if cfg.laneBound > 0 {
		engOpts = append(engOpts, core.WithLaneQueueBound(cfg.laneBound))
	}
	if cfg.policy != OverloadBlock {
		engOpts = append(engOpts, core.WithOverloadPolicy(cfg.policy))
	}
	if cfg.durDir != "" {
		// Host the per-lane overflow logs beside the certified state;
		// the subdirectory only materializes on first spill.
		engOpts = append(engOpts, core.WithSpillDir(filepath.Join(cfg.durDir, "spill")))
	}
	if cfg.stallBudget > 0 {
		engOpts = append(engOpts, core.WithSlowConsumerBudget(cfg.stallBudget, cfg.mailbox))
	}

	if cfg.transport != nil {
		if cfg.durDir != "" {
			// Stable storage opens (and replays) before the substrate
			// comes up, so the first retransmission already consults the
			// recovered state.
			dur, err := durable.Open(durable.Config{
				Dir:          cfg.durDir,
				SegmentBytes: cfg.durTuning.SegmentBytes,
				Sync:         cfg.durTuning.Sync,
				Logger:       log,
			})
			if err != nil {
				return fail(err)
			}
			d.dur = dur
		}
		d.tr = cfg.transport
		d.node = dace.NewNode(cfg.transport, reg, cfg.daceConfig(d.tele, log, d.dur))
		d.eng = core.NewEngine(cfg.transport.Addr(), d.node, engOpts...)
		node := d.node
		d.rmiRT = rmi.Attach(node.Addr(), func(deliver multicast.Deliver) *multicast.Reliable {
			return node.OpenLink(rmi.Stream, deliver)
		}, node.Clock(), reg, rmi.Options{Logger: log})
		if len(cfg.peers) > 0 {
			d.node.SetPeers(cfg.peers)
		}
	} else {
		d.eng = core.NewEngine(name, core.NewLocal(), engOpts...)
	}
	if cfg.metricsAddr != "" {
		ms, err := startMetricsServer(cfg.metricsAddr, d)
		if err != nil {
			_ = d.eng.Close()
			if d.dur != nil {
				_ = d.dur.Close()
			}
			return fail(err)
		}
		d.metrics = ms
	}
	if d.dur != nil && cfg.durTuning.Retention.Interval > 0 {
		d.startRetention(cfg.durTuning.Retention, cfg.clock)
	}
	return d, nil
}

// Name returns the domain member's name.
func (d *Domain) Name() string { return d.name }

// Addr returns the domain member's wire address: the transport address
// for distributed domains, the name for local ones.
func (d *Domain) Addr() string {
	if d.tr != nil {
		return d.tr.Addr()
	}
	return d.name
}

// Registry returns the domain's obvent type registry.
func (d *Domain) Registry() *obvent.Registry { return d.reg }

// Register records the concrete types of the samples as obvent classes
// ahead of use, and compiles their encodings, refusing a class that
// cannot travel (Publish refuses it likewise). Publishing and subscribing
// register types lazily, so Register is only needed for classes this
// process never publishes or subscribes directly — typically subtypes
// published by other nodes that must still decode here (type knowledge
// is per-process).
func (d *Domain) Register(samples ...Obvent) error {
	for _, s := range samples {
		if _, err := d.reg.Register(s); err != nil {
			return fmt.Errorf("govents: register: %w", err)
		}
		if err := d.eng.Codec().Compile(s); err != nil {
			return fmt.Errorf("govents: register: %w", err)
		}
	}
	return nil
}

// Publish disseminates an obvent to every subscriber with a matching
// subscription — the paper's publish primitive (§3.2), the distributed
// analog of object creation: each subscriber receives a distinct clone.
// Dissemination is asynchronous; a nil error means the obvent was
// accepted by the substrate, not that it was delivered. ctx is
// consulted for cancellation before the obvent is handed down.
func (d *Domain) Publish(ctx context.Context, o Obvent) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCannotPublish, err)
	}
	return d.eng.Publish(o)
}

// SetPeers installs the domain membership (all node transport
// addresses, including this one) and re-advertises local subscriptions
// to it. It fails on a local domain.
func (d *Domain) SetPeers(peers ...string) error {
	if d.node == nil {
		return fmt.Errorf("govents: domain %q is local: no peers", d.name)
	}
	d.node.SetPeers(peers)
	return nil
}

// RemoteSubscriptionCount reports how many remote subscriptions this
// member currently knows — the signal that subscription advertisements
// have propagated. Always zero on a local domain.
func (d *Domain) RemoteSubscriptionCount() int {
	if d.node == nil {
		return 0
	}
	return d.node.RemoteSubscriptionCount()
}

// Stats returns the domain's cumulative delivery counters. DecodeErrors
// includes the data frames the distribution layer could not decode as
// an envelope.
func (d *Domain) Stats() DispatchStats {
	st := d.eng.Stats()
	if d.node != nil {
		st.DecodeErrors += d.node.DecodeErrors()
	}
	return st
}

// Histograms returns an immutable snapshot of the per-stage latency
// histograms, keyed by stage name (publish_to_route, route_to_write,
// wire_to_lane, lane_wait, dispatch, e2e). All durations are
// nanoseconds. Empty histograms mean telemetry is off (WithTelemetry
// false) or the stage has not run — e.g. e2e needs a remote publisher.
func (d *Domain) Histograms() map[string]StageSnapshot {
	return d.tele.Histograms()
}

// DroppedByReason returns the cumulative count of deliveries dropped per
// reason, keyed by the trace outcome names: each entry is the Stats
// field named beside it.
func (d *Domain) DroppedByReason() map[string]uint64 {
	st := d.Stats()
	return map[string]uint64{
		telemetry.ReasonExpired.String():        st.Expired,
		telemetry.ReasonDecodeError.String():    st.DecodeErrors,
		telemetry.ReasonHandlerPanic.String():   st.HandlerPanics,
		telemetry.ReasonExecutorClosed.String(): st.ExecutorClosed,
		telemetry.ReasonOverloadShed.String():   st.Shed,
		telemetry.ReasonSlowConsumer.String():   st.SlowConsumerDrops,
	}
}

// LaneOccupancies returns LaneStats.
//
// Deprecated: use LaneStats.
func (d *Domain) LaneOccupancies() []LaneOccupancy { return d.LaneStats() }

// MetricsAddr returns the effective listen address of the metrics
// endpoint (useful with a ":0" WithMetricsAddr), or "" when the domain
// was opened without one.
func (d *Domain) MetricsAddr() string {
	if d.metrics == nil {
		return ""
	}
	return d.metrics.addr()
}

// LaneStats returns per-lane dispatcher counters, one entry per lane
// in lane order (LaneStat.Lane).
func (d *Domain) LaneStats() []LaneStat { return d.eng.LaneStats() }

// DispatchLanes returns the number of dispatch lanes.
func (d *Domain) DispatchLanes() int { return d.eng.DispatchLanes() }

// RoutingStats returns the routing-plane counters of a distributed
// domain, folded over all classes. Zero on a local domain.
func (d *Domain) RoutingStats() RoutingStats {
	if d.node == nil {
		return RoutingStats{}
	}
	return d.node.RoutingStats()
}

// RoutingStatsByClass breaks the routing counters out per obvent class.
// Nil on a local domain.
func (d *Domain) RoutingStatsByClass() map[string]RoutingStats {
	if d.node == nil {
		return nil
	}
	return d.node.RoutingStatsByClass()
}

// DurableStats returns the cumulative counters of the durability plane,
// folded over all certified classes. Zero without WithDurability.
func (d *Domain) DurableStats() DurableStats {
	if d.dur == nil {
		return DurableStats{}
	}
	return d.dur.Stats()
}

// CompactDurable reclaims durable log space: fully-acknowledged sealed
// segments of every class's outbox and inbox are dropped after a
// snapshot of the surviving acknowledgement state. It fails with
// ErrNoDurability on a domain opened without WithDurability. Safe to
// call at any time; events still owed to any durable consumer are
// always retained.
func (d *Domain) CompactDurable() error {
	if d.dur == nil {
		return fmt.Errorf("govents: compact %q: %w", d.name, ErrNoDurability)
	}
	if err := d.dur.Compact(); err != nil {
		return fmt.Errorf("govents: compact %q: %w", d.name, err)
	}
	return nil
}

// TupleSpace returns the domain's tuple space (paper §6.3), created
// lazily on first use and closed with the domain. The space is
// in-process: the paper's Linda baseline, reachable from the same
// facade so applications can mix coordination styles.
func (d *Domain) TupleSpace() *tuplespace.Space {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ts == nil {
		d.ts = tuplespace.New()
	}
	return d.ts
}

// Topics returns the domain's topic-based bus (paper §2.3.2), created
// lazily on first use. Like the tuple space, it is the in-process
// baseline abstraction sharing the facade.
func (d *Domain) Topics() *topics.Bus {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.topics == nil {
		d.topics = topics.New()
	}
	return d.topics
}

// RMI returns the domain's remote-method-invocation runtime (paper
// §5.4), or nil for a local domain. It shares the domain's transport,
// and resends a lost request or reply to the domain's peers.
func (d *Domain) RMI() *rmi.Runtime { return d.rmiRT }

// Close shuts the domain down: it deactivates all subscriptions,
// drains in-flight deliveries, closes the dissemination substrate, the
// RMI runtime, the owned transport and the tuple space. Close is
// idempotent; if ctx expires first, Close returns ctx.Err() while
// shutdown continues in the background, and a later Close call waits
// for that same shutdown to finish.
func (d *Domain) Close(ctx context.Context) error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.closeDone = make(chan struct{})
		ts := d.ts
		go func() {
			if d.metrics != nil {
				d.metrics.close() // stop scrapes before state goes down
			}
			// Stop the retention pass before the durable logs close
			// underneath it.
			d.retain.Stop()
			err := d.eng.Close() // drains handlers, closes the disseminator
			if d.dur != nil {
				// After the engine: in-flight certified deliveries may
				// still append acknowledgements until the substrate is
				// down.
				if cerr := d.dur.Close(); err == nil {
					err = cerr
				}
			}
			if ts != nil {
				ts.Close()
			}
			if d.rmiRT != nil {
				// After the engine: a handler's call is answered while it
				// drains.
				if cerr := d.rmiRT.Close(); err == nil {
					err = cerr
				}
			}
			if d.tr != nil {
				if cerr := d.tr.Close(); err == nil {
					err = cerr
				}
			}
			d.closeErr = err
			close(d.closeDone)
		}()
	}
	done := d.closeDone
	d.mu.Unlock()

	select {
	case <-done:
		return d.closeErr
	case <-ctx.Done():
		return fmt.Errorf("govents: close %q: %w", d.name, ctx.Err())
	}
}
