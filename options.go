package govents

import (
	"cmp"
	"log/slog"
	"time"

	"govents/internal/clock"
	"govents/internal/core"
	"govents/internal/dace"
	"govents/internal/durable"
	"govents/internal/multicast"
	"govents/internal/obvent"
	"govents/internal/telemetry"
)

// OverloadPolicy selects what a bounded dispatch lane does once its
// in-memory queue is full (see WithLaneQueueBound, WithOverloadPolicy).
type OverloadPolicy = core.OverloadPolicy

const (
	// OverloadBlock makes a full lane's intake wait until the lane
	// drains below its bound: no event is lost, and the lane holds at
	// most its bound. The wait holds the goroutine that feeds the lane:
	// Publish in a local domain or for a publication delivered at its
	// own node, and on TCP the reader of the publisher's connection,
	// which stops reading until the lane has room ("Overload and flow
	// control" in the package documentation). This is the default.
	OverloadBlock = core.OverloadBlock
	// OverloadDropOldest sheds the oldest queued envelope to admit the
	// newest. Sheds are counted in DispatchStats.Shed, reported as
	// DroppedByReason "overload_shed".
	OverloadDropOldest = core.OverloadDropOldest
	// OverloadSpill overflows to a per-lane durable segment log under
	// the domain's durability directory and drains it back, oldest
	// first, once the lane catches up — latency degrades, delivery does
	// not. Requires WithDurability.
	OverloadSpill = core.OverloadSpill
)

// SyncPolicy selects when the durable event log flushes appended
// records to stable storage (see WithDurabilityTuning).
type SyncPolicy = durable.SyncPolicy

const (
	// SyncAlways fsyncs after every appended record: no acknowledged
	// event is ever lost, at the cost of one disk sync per publish.
	SyncAlways = durable.SyncAlways
	// SyncBatch fsyncs on segment roll and close only, letting the OS
	// batch writes: a crash may lose the tail of the active segment,
	// which certified redelivery then repairs from the publishers.
	SyncBatch = durable.SyncBatch
)

// RetentionPolicy schedules automatic durable-log compaction (see
// DurabilityTuning.Retention). The zero value disables the ticker;
// CompactDurable remains available for manual compaction either way.
type RetentionPolicy struct {
	// Interval is the period of the background retention tick; each
	// tick runs the same snapshot+compact pass as CompactDurable.
	// Ticks are jittered ±10% so a fleet of domains restarted together
	// does not compact in lockstep. Zero disables the ticker.
	Interval time.Duration
}

// DurabilityTuning adjusts the durable event log (see WithDurability).
// The zero value selects the defaults: 1 MiB segments, SyncAlways, no
// retention ticker.
type DurabilityTuning struct {
	// SegmentBytes is the size threshold at which the log rolls to a
	// new segment file; compaction reclaims whole sealed segments.
	SegmentBytes int64
	// Sync is the fsync policy for appended records.
	Sync SyncPolicy
	// Retention schedules automatic background compaction. Compaction
	// only ever drops fully-acknowledged sealed segments — events still
	// owed to any durable consumer are retained regardless of policy.
	Retention RetentionPolicy
}

// Placement selects where migratable remote filters are evaluated
// (paper §2.3.2, §3.3.3).
type Placement = dace.Placement

const (
	// AtSubscriber ships every matching-typed obvent to the
	// subscriber's node, which filters locally (the unoptimized
	// baseline).
	AtSubscriber = dace.AtSubscriber
	// AtPublisher evaluates migrated filters at the publishing node
	// and sends only to nodes with at least one passing subscription,
	// saving bandwidth. Unordered classes prune per message; ordered
	// classes prune through the interest-aware multicast protocols
	// (package doc, "Interest-aware multicast"); certified classes
	// address their durable subscribers explicitly.
	AtPublisher = dace.AtPublisher
)

// Tuning adjusts the dissemination protocol timers. The zero value
// selects defaults suited to real networks; tests and simulations
// shorten the intervals.
type Tuning struct {
	// RetransmitInterval is the period between retransmissions of
	// unacknowledged messages (reliable, FIFO, causal, total-order and
	// certified classes).
	RetransmitInterval time.Duration
}

// config collects the Open options.
type config struct {
	transport   Transport
	peers       []string
	placement   Placement
	lanes       int
	registry    *obvent.Registry
	adTTL       time.Duration
	tuning      Tuning
	durDir      string
	durTuning   DurabilityTuning
	naive       bool
	metricsAddr string
	traceHook   func(TraceEvent)
	traceEvery  int
	logger      *slog.Logger
	teleOff     bool
	laneBound   int
	policy      OverloadPolicy
	stallBudget time.Duration
	mailbox     int
	clock       clock.Clock // nil: the wall clock; set by this package's tests
}

// An Option configures a Domain at Open.
type Option func(*config)

// WithTransport makes the domain distributed: it joins the
// publish/subscribe domain reachable over tr (DACE, paper §4.2)
// instead of the in-process loopback. Ownership of tr transfers to the
// Domain, which closes it on Close. Obtain a transport from ListenTCP
// (real sockets) or govents/netsim (simulated network).
func WithTransport(tr Transport) Option {
	return func(c *config) { c.transport = tr }
}

// WithPeers installs the initial domain membership: the transport
// addresses of every node, including this one. Without it the domain
// starts alone; use Domain.SetPeers for later membership changes.
func WithPeers(peers ...string) Option {
	return func(c *config) { c.peers = append([]string(nil), peers...) }
}

// WithPlacement selects remote-filter placement (default AtPublisher:
// filters migrate to publishing nodes and prune traffic at the source).
func WithPlacement(p Placement) Option {
	return func(c *config) { c.placement = p }
}

// WithDispatchLanes sets the number of dispatch lanes. Zero (the
// default) means GOMAXPROCS. A causal or total-order class drains
// through the one lane its name hashes onto, and every other obvent
// through its publisher's lane, so each ordering contract holds for any
// n: FIFO only promises per-publisher order, and causal and total order
// are per class.
func WithDispatchLanes(n int) Option {
	return func(c *config) { c.lanes = n }
}

// WithLaneQueueBound caps every dispatch lane's in-memory queue at n
// envelopes. A full lane applies the domain's overload policy
// (WithOverloadPolicy) instead of growing without bound. Zero (the
// default) keeps the queues unbounded.
func WithLaneQueueBound(n int) Option {
	return func(c *config) { c.laneBound = n }
}

// WithOverloadPolicy selects what a bounded dispatch lane
// (WithLaneQueueBound) does once full: OverloadBlock (backpressure,
// the default), OverloadDropOldest (shed with counted reason), or
// OverloadSpill (overflow to per-lane durable segment logs under the
// durability directory — requires WithDurability — drained once the
// lane catches up). Without a queue bound the policy is idle.
func WithOverloadPolicy(p OverloadPolicy) Option {
	return func(c *config) { c.policy = p }
}

// WithSlowConsumerBudget enables per-subscription slow-consumer
// isolation: a subscription whose handler has been stuck longer than
// stall while deliveries queue behind it is quarantined — its queue
// becomes a bounded mailbox of the given size (<= 0 selects 1024)
// whose overflow is dropped for that subscription only, counted in
// DispatchStats.SlowConsumerDrops, reported as DroppedByReason
// "slow_consumer" (ErrSlowConsumer). The subscription leaves
// quarantine once its handler resumes and the mailbox half-drains.
// Other subscriptions, lane draining and Close are never blocked by a
// quarantined consumer. A zero stall disables isolation (the default).
func WithSlowConsumerBudget(stall time.Duration, mailbox int) Option {
	return func(c *config) { c.stallBudget, c.mailbox = stall, mailbox }
}

// WithRegistry makes the domain use a shared obvent type registry
// (useful when several domains in one process must agree on type
// names). By default each domain owns a fresh registry.
func WithRegistry(reg *obvent.Registry) Option {
	return func(c *config) { c.registry = reg }
}

// WithAdTTL enables ad-stream GC on a distributed domain: the node
// re-advertises its subscription state as a liveness heartbeat several
// times per TTL and drops any peer's routing entries once that peer
// has been silent for the TTL, even without a membership change — so a
// crashed node stops being owed events, certified deliveries and
// routing-table memory. Set the same TTL on every domain member: a
// node without it sends no heartbeats and would be wrongly expired.
func WithAdTTL(d time.Duration) Option {
	return func(c *config) { c.adTTL = d }
}

// WithTuning adjusts the dissemination protocol timers.
func WithTuning(t Tuning) Option {
	return func(c *config) { c.tuning = t }
}

// WithDurability gives the domain a durability directory: certified
// delivery state — the publisher-side outbox and the subscriber-side
// inbox of every certified class — moves to per-class append-only
// segment logs under dir, so it survives crash-restart, not just
// disconnection. A domain reopened on the same directory resumes where
// the crashed incarnation stopped: unacknowledged outbox events are
// retransmitted, and SubscribeDurable replays the events a durable
// subscription missed while the process was down before going live.
//
// The directory belongs to one domain member; reopening it under a new
// transport address orphans the previous incarnation's outbox
// consumers. Without WithDurability every certified class keeps the
// same state in memory, one outbox and one delivered set per class,
// holding what is unacknowledged: it outlasts a subscriber's
// disconnection, not this process. WithDurability requires
// WithTransport.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithDurabilityTuning adjusts the durable event log's segment size and
// fsync policy. It only has effect together with WithDurability.
func WithDurabilityTuning(t DurabilityTuning) Option {
	return func(c *config) { c.durTuning = t }
}

// WithMetricsAddr starts an HTTP metrics endpoint on addr (e.g.
// "127.0.0.1:0") when the domain opens and stops it on Close. The
// endpoint serves /metrics (Prometheus text exposition of the per-stage
// latency histograms, the Stats event and drop counters and each
// lane's LaneStat.Queued), /debug/vars
// (expvar) and /debug/pprof (the runtime profiler). The effective
// address, including a kernel-chosen port, is available from
// Domain.MetricsAddr.
func WithMetricsAddr(addr string) Option {
	return func(c *config) { c.metricsAddr = addr }
}

// WithTraceHook installs a per-event trace callback: hook receives one
// TraceEvent per sampled delivered event and one per failure outcome
// (expiry, decode error, handler panic — failures always fire,
// regardless of sampling). every is the delivered-event sampling rate
// (1 = every event, n = one in n; <=0 means 1). The hook runs on hot
// dispatch goroutines: it must be fast and must not call back into the
// Domain.
func WithTraceHook(hook func(TraceEvent), every int) Option {
	return func(c *config) { c.traceHook, c.traceEvery = hook, every }
}

// WithTelemetry toggles per-stage latency measurement (default on).
// Passing false turns off exactly two things: the stage histograms
// (Histograms returns empty snapshots) and the timestamps that feed
// them, so the hot paths cost one atomic load per event. Everything
// else stays live either way: Stats, DroppedByReason, LaneStats (lane
// depth and its high-water mark), the /metrics counters and gauges, and
// trace hooks.
func WithTelemetry(enabled bool) Option {
	return func(c *config) { c.teleOff = !enabled }
}

// WithLogger installs the domain's diagnostics logger, receiving
// anomalies that have no error-return path to the application —
// recovered handler panics, undecodable frames, failed certified
// redeliveries, file-log replay skips. The default discards them.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithNaiveDispatch disables the indexed dispatch pipeline in favor of
// the unindexed per-subscription reference path. Delivery semantics
// are identical; this exists as the transparency oracle for tests and
// benchmarks, not for production use.
func WithNaiveDispatch() Option {
	return func(c *config) { c.naive = true }
}

// distributedOnly names the set options that are meaningless without a
// transport, so Open can reject them instead of dropping them silently.
func (c *config) distributedOnly() []string {
	var bad []string
	if len(c.peers) > 0 {
		bad = append(bad, "WithPeers")
	}
	if c.placement != 0 {
		bad = append(bad, "WithPlacement")
	}
	if c.adTTL != 0 {
		bad = append(bad, "WithAdTTL")
	}
	if c.tuning != (Tuning{}) {
		bad = append(bad, "WithTuning")
	}
	if c.durDir != "" {
		bad = append(bad, "WithDurability")
	}
	return bad
}

// daceConfig renders the options into the substrate configuration.
// tele and log are the domain's telemetry plane and logger, dur the
// opened durability manager (nil without WithDurability) — all built by
// Open and shared with the engine.
func (c *config) daceConfig(tele *telemetry.Plane, log *slog.Logger, dur *durable.Manager) dace.Config {
	return dace.Config{
		Placement: cmp.Or(c.placement, AtPublisher),
		Durable:   dur,
		AdTTL:     c.adTTL,
		Telemetry: tele,
		Logger:    log,
		Multicast: multicast.Options{RetransmitInterval: c.tuning.RetransmitInterval},
		Clock:     c.clock,
	}
}
