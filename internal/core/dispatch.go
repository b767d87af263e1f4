package core

import (
	"sort"
	"sync/atomic"
	"time"

	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/matching"
	"govents/internal/obvent"
	"govents/internal/telemetry"
)

// This file implements the engine's indexed delivery pipeline:
//
//	wire type name ──► dispatchTable ──► per-class plan ──► compound match
//	                   (atomic COW)      (matching.Cache) ──► one value per match
//
// The table is an immutable snapshot of the active subscription set,
// republished through an atomic pointer on every activate/deactivate, so
// the per-envelope hot path never takes the engine mutex and never sorts.
// Each concrete obvent class gets a lazily compiled plan: one compound
// matcher (package matching) over its candidate subscriptions (expanded
// through the registry's conformance relation), an entry without a
// filter for each one that has no remote filter, so an event's
// conditions are evaluated once across all subscribers instead of once
// per subscription, on the event decoded in place (CloneSource.Value),
// the decode its deliveries then copy from. Obvent local uniqueness (§2.1.2) is then
// paid only for the subscriptions whose remote matching passed, each
// through its own executor's offer: a typed subscription queues a copy
// of the decoded event, of a class with reference kinds decoded once
// per match, of a flat class (no pointer, slice or map, transitively)
// once per envelope, since its copy is already deep; an interface-typed
// or dynamic subscription queues the event boxed, a flat class's one
// box per envelope, which cannot be observed to be shared: a value held
// in an interface is not addressable and holds nothing to write through.
// Opaque local filters run on the subscriber's own value (as in the
// naive path), so filters can never observe another subscriber's state.

// DispatchStats are the engine's cumulative delivery counters. They make
// silently dropped traffic (expired envelopes, undecodable payloads)
// observable instead of vanishing in the dispatch loop.
type DispatchStats struct {
	// EventsIn counts envelopes entering dispatch.
	EventsIn uint64
	// Expired counts timely envelopes dropped as obsolete (§3.1.2).
	Expired uint64
	// Delivered counts (subscription, event) pairs that passed type,
	// activation, remote-filter and local-filter matching and were
	// handed to the subscription's executor. A clone that fails to
	// decode surfaces in DecodeErrors, a quarantined slow consumer's
	// mailbox overflow in SlowConsumerDrops and a closed executor in
	// ExecutorClosed; none of them is delivered.
	Delivered uint64
	// DecodeErrors counts envelopes or clones that failed to decode
	// (drop reason "decode_error").
	DecodeErrors uint64
	// HandlerPanics counts application handler panics recovered by the
	// delivery pipeline (engine-wide; per-event, not per-lane; drop
	// reason "handler_panic").
	HandlerPanics uint64
	// ExecutorClosed counts matched deliveries whose subscription's
	// executor had already closed (a shutdown race; drop reason
	// "executor_closed").
	ExecutorClosed uint64

	// Shed counts envelopes dropped by bounded lanes under the
	// DropOldest overload policy (plus spill-failure degradations) —
	// drop reason "overload_shed".
	Shed uint64
	// Spilled / SpillDrained count envelopes written to and drained back
	// from the per-lane overflow segment logs (OverloadSpill). Spilled
	// minus SpillDrained is the aggregate on-disk backlog.
	Spilled      uint64
	SpillDrained uint64
	// SlowConsumerDrops counts deliveries dropped because a quarantined
	// slow consumer's bounded mailbox overflowed (engine-wide; drop
	// reason "slow_consumer"). Other subscriptions are unaffected.
	SlowConsumerDrops uint64
	// Quarantines counts slow-consumer quarantine transitions
	// (engine-wide): a handler exceeded its stall budget with deliveries
	// waiting and was moved to a bounded, serialized mailbox.
	Quarantines uint64

	// AccessorPrograms counts the accessor programs compiled by the live
	// dispatch table's compound matchers: one per (event type, unique
	// filter path) first seen by a class plan. Counters follow the
	// current table — plans are compiled again on subscription churn
	// and registry growth, restarting the count.
	AccessorPrograms uint64
	// AccessorFallbacks counts per-event path resolutions in the live
	// table's matchers that fell back to name-based reflection (path
	// does not compile for the event type; fail-open is preserved).
	AccessorFallbacks uint64

	// WireCompiles / WireRejects count per-class wire-codec program
	// compilation outcomes in the engine's codec (each class is decided
	// once; a rejected class cannot be published).
	WireCompiles uint64
	WireRejects  uint64
	// WireEncodes / WireDecodes count payload encodes and decodes by
	// the engine's codec.
	WireEncodes uint64
	WireDecodes uint64
}

// dispatchCounters is the engine-internal atomic form of DispatchStats.
type dispatchCounters struct {
	eventsIn       atomic.Uint64
	expired        atomic.Uint64
	delivered      atomic.Uint64
	decodeErrors   atomic.Uint64
	executorClosed atomic.Uint64
	shed           atomic.Uint64
	spilled        atomic.Uint64
	spillDrained   atomic.Uint64
}

func (c *dispatchCounters) snapshot() DispatchStats {
	return DispatchStats{
		EventsIn:       c.eventsIn.Load(),
		Expired:        c.expired.Load(),
		Delivered:      c.delivered.Load(),
		DecodeErrors:   c.decodeErrors.Load(),
		ExecutorClosed: c.executorClosed.Load(),
		Shed:           c.shed.Load(),
		Spilled:        c.spilled.Load(),
		SpillDrained:   c.spillDrained.Load(),
	}
}

// add folds another snapshot into s (used to aggregate per-lane counters).
func (s *DispatchStats) add(o DispatchStats) {
	s.EventsIn += o.EventsIn
	s.Expired += o.Expired
	s.Delivered += o.Delivered
	s.DecodeErrors += o.DecodeErrors
	s.ExecutorClosed += o.ExecutorClosed
	s.Shed += o.Shed
	s.Spilled += o.Spilled
	s.SpillDrained += o.SpillDrained
}

// Stats returns a snapshot of the engine's delivery counters, folded
// across all dispatch lanes, plus the compile-step counters of the
// reflection-free pipeline: accessor programs in the live dispatch
// table's matchers and wire programs in the engine's codec.
func (e *Engine) Stats() DispatchStats {
	st := e.lanes.stats()
	st.HandlerPanics = e.handlerPanics.Load()
	st.SlowConsumerDrops = e.overload.slowDrops.Load()
	st.Quarantines = e.overload.quarantines.Load()
	ws := e.codec.WireStats()
	st.WireCompiles = ws.Compiles
	st.WireRejects = ws.Rejects
	st.WireEncodes = ws.Encodes
	st.WireDecodes = ws.Decodes
	ms := e.table.Load().buckets.AccessorStats("")
	st.AccessorPrograms = ms.AccessorPrograms
	st.AccessorFallbacks = ms.AccessorFallbacks
	return st
}

// LaneStats returns a per-lane snapshot of the dispatcher, one entry per
// lane in lane order.
func (e *Engine) LaneStats() []LaneStat { return e.lanes.laneStats() }

// DispatchLanes returns the number of dispatch lanes.
func (e *Engine) DispatchLanes() int { return len(e.lanes.lanes) }

// dispatchTable is an immutable snapshot of the active subscriptions,
// grouped by subscribed (target) type name. It is published via
// Engine.table; dispatch loads it lock-free. Plans for concrete classes
// are compiled on first use and cached in a matching.Cache under the
// registry generation (a later registration, e.g. of an abstract type,
// can extend conformance), so racing compilations are harmless.
type dispatchTable struct {
	reg *obvent.Registry
	// byTarget maps each subscribed type name to its active
	// subscriptions.
	byTarget map[string][]*Subscription
	// targets is the sorted key set of byTarget, for deterministic
	// plan compilation order.
	targets []string
	// buckets caches each concrete class's compound over its candidate
	// subscriptions, with the map resolving match IDs back to them.
	buckets *matching.Cache[map[string]*Subscription]
}

// newDispatchTable snapshots the active subscription set. Caller must
// not hold subscription mutexes.
func newDispatchTable(reg *obvent.Registry, subs map[string]*Subscription) *dispatchTable {
	t := &dispatchTable{reg: reg, byTarget: make(map[string][]*Subscription)}
	for _, s := range subs {
		if !s.Active() {
			continue
		}
		t.byTarget[s.typeName] = append(t.byTarget[s.typeName], s)
	}
	for name := range t.byTarget {
		t.targets = append(t.targets, name)
	}
	sort.Strings(t.targets)
	t.buckets = matching.NewCache(reg, reg.Gen, t.compileBucket)
	return t
}

// compileBucket gathers the candidates for one concrete class and
// factors their remote filters into a compound matcher whose IDs are
// subscription IDs.
func (t *dispatchTable) compileBucket(concrete string) (*matching.Compound, map[string]*Subscription) {
	filters := make(map[string]*filter.Expr)
	byID := make(map[string]*Subscription)
	for _, target := range t.targets {
		if !t.reg.ConformsTo(concrete, target) {
			continue
		}
		for _, s := range t.byTarget[target] {
			filters[s.id] = s.remoteFilter
			byID[s.id] = s
		}
	}
	c := matching.New()
	// One batch add = one plan compilation. Validated at Subscribe;
	// AddBatch cannot fail.
	_ = c.AddBatch(filters)
	return c, byID
}

// dispatchScratch is one dispatch lane's reusable working state. Each
// lane has exactly one drain goroutine, so no pooling or locking is
// needed; the slices just survive across that lane's envelopes.
type dispatchScratch struct {
	ids     []string          // compound match output buffer
	deliver []*Subscription   // delivery list for the current envelope
	src     codec.CloneSource // clone source, reset per envelope
	// full decodes the current envelope's event from src, in place
	// (CloneSource.Value: no box), for the compound to evaluate. One
	// persistent closure per lane (created on first use, capturing the
	// lane's stable scratch pointer) so the hot path does not allocate a
	// closure per envelope.
	full func() (any, error)
}

// dispatch matches one envelope against the indexed subscription table
// and hands each matching subscription's executor its own value. It
// runs on a lane goroutine with that lane's private state ln; lanes
// dispatch concurrently, sharing only the immutable table snapshot, the
// codec and the (internally synchronized) executors.
func (e *Engine) dispatch(env *codec.Envelope, ln *laneState) {
	table := e.table.Load() // before the count: no later activation reaches what it counted
	ln.counters.eventsIn.Add(1)
	// Timely obvents: obsolete envelopes are dropped, not delivered
	// (§3.1.2).
	if env.Expired(time.Now()) {
		ln.counters.expired.Add(1)
		e.noteDrop(env, telemetry.ReasonExpired)
		return
	}
	if e.naiveDispatch {
		e.dispatchNaive(env, ln)
		return
	}

	c, byID := table.buckets.Get(env.Type)
	if len(byID) == 0 {
		return
	}

	// Decode once: one canonical value drives all remote-filter
	// evaluation; plans without remote filters skip the decode. The
	// CloneSource lives in the lane scratch — resolving a source must
	// not allocate per envelope.
	sc := &ln.scratch
	src := &sc.src
	if err := e.codec.SourceInto(env, src); err != nil {
		ln.counters.decodeErrors.Add(1)
		e.noteDrop(env, telemetry.ReasonDecodeError)
		src.Reset() // do not pin the failed envelope
		return
	}
	// The compound evaluates the event decoded in place (sc.full), which
	// the deliveries below copy from; a plan with no filter decodes
	// nothing. Its matches come in subscription-ID order.
	if sc.full == nil {
		sc.full = func() (any, error) { return sc.src.Value() }
	}
	wp, payload, _ := src.Wire()
	matched, err := c.MatchWireAppend(wp, payload, sc.full, sc.ids[:0])
	if err != nil {
		ln.counters.decodeErrors.Add(1)
		e.noteDrop(env, telemetry.ReasonDecodeError)
		src.Reset() // do not pin the failed envelope
		return
	}
	deliver := sc.deliver[:0]
	for _, id := range matched {
		if s := byID[id]; s.Active() {
			deliver = append(deliver, s)
		}
	}

	// One value per match (§2.1.2; see the header for what a flat class
	// shares): only subscriptions whose remote matching passed pay for
	// one, O(matches) instead of O(subscriptions). Opaque local filters
	// run on the subscriber's own value — exactly as in the naive path —
	// so a mutating local filter can never leak state across
	// subscriptions.
	m := e.metaOf(env, ln)
	decodeFailed := false // count decode errors once per envelope
	for _, s := range deliver {
		if e.offer(s, src, m, env, ln) && !decodeFailed {
			decodeFailed = true
			ln.counters.decodeErrors.Add(1)
			e.noteDrop(env, telemetry.ReasonDecodeError)
		}
	}
	// Retain any buffer growth for this lane's next envelope; hand back
	// the clone source's decoded value and drop its payload and shared
	// box, so an idle lane does not pin its last envelope's obvent for
	// the GC.
	sc.ids = matched[:0]
	sc.deliver = deliver[:0]
	src.Reset()
}

// metaOf is what each delivery of env carries of it.
func (e *Engine) metaOf(env *codec.Envelope, ln *laneState) meta {
	return meta{ordered: e.orderedDelivery(env), prio: priorityOf(env), deq: ln.deq, pub: env.PubNanos, name: env.Name, id: env.ID, class: env.Type}
}

// offer hands s its own value of the event in src and counts the
// outcome; it reports whether that value failed to decode, which the
// caller counts once per envelope.
func (e *Engine) offer(s *Subscription, src *codec.CloneSource, m meta, env *codec.Envelope, ln *laneState) (undecodable bool) {
	switch s.executor.offer(src, m) {
	case submitOK:
		ln.counters.delivered.Add(1)
	case submitShed:
		e.noteDrop(env, telemetry.ReasonSlowConsumer)
	case submitClosed:
		ln.counters.executorClosed.Add(1)
		e.noteDrop(env, telemetry.ReasonExecutorClosed)
	case submitUndecodable:
		return true
	}
	return false
}

// orderedDelivery reports whether this envelope's deliveries must run
// in order on the subscriber executors: stamped wire ordering, or the
// envelope's class resolving to an ordering, as laneOf resolves it, so
// an ordered class's envelopes from a peer that forgot to stamp the wire
// metadata are executed in order, not just queued in order. Prioritary
// envelopes execute under the normal thread policy: priority and
// ordering cannot combine (Figure 4).
func (e *Engine) orderedDelivery(env *codec.Envelope) bool {
	if env.Ordering > obvent.NoOrder {
		return true
	}
	if sem, ok := e.reg.ClassSemantics(env.Type); ok {
		return sem.Ordering > obvent.NoOrder
	}
	return false
}

// priorityOf is an envelope's stamped priority, 0 without one: the key
// executor.submit orders a subscription's queued deliveries by.
func priorityOf(env *codec.Envelope) int {
	if env.HasPriority {
		return env.Priority
	}
	return 0
}

// dispatchNaive is the pre-index delivery path: snapshot and sort the
// whole subscription table, then decode and evaluate per subscription.
// It is retained, behind WithNaiveDispatch, as the transparency oracle
// for tests and the baseline for BenchmarkDispatch.
func (e *Engine) dispatchNaive(env *codec.Envelope, ln *laneState) {
	e.mu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, s := range e.subs {
		subs = append(subs, s)
	}
	e.mu.Unlock()
	// Deterministic dispatch order (map iteration is random).
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })

	// One clone source per envelope — the same decode entry point as the
	// indexed path (SourceInto on the lane scratch), resolved lazily so
	// an envelope no subscription conforms to never decodes at all.
	src := &ln.scratch.src
	srcResolved := false
	m := e.metaOf(env, ln)
	decodeFailed := false // count decode errors once per envelope, as the indexed path does
	for _, s := range subs {
		if !s.Active() {
			continue
		}
		if !e.reg.ConformsTo(env.Type, s.typeName) {
			continue
		}
		if !srcResolved {
			if err := e.codec.SourceInto(env, src); err != nil {
				ln.counters.decodeErrors.Add(1)
				e.noteDrop(env, telemetry.ReasonDecodeError)
				src.Reset()
				return
			}
			srcResolved = true
		}
		// Obvent local uniqueness (§2.1.2): the remote filter runs on a
		// clone, and the subscription gets its own value (offer).
		undecodable := false
		if s.remoteFilter != nil {
			o, err := src.Clone()
			if undecodable = err != nil; !undecodable {
				if ok, err := filter.Evaluate(s.remoteFilter, o); err != nil || !ok {
					continue
				}
			}
		}
		if !undecodable {
			undecodable = e.offer(s, src, m, env, ln)
		}
		if undecodable && !decodeFailed {
			decodeFailed = true
			ln.counters.decodeErrors.Add(1)
			e.noteDrop(env, telemetry.ReasonDecodeError)
		}
	}
	// Do not pin the envelope's payload or shared box on an idle lane.
	src.Reset()
}

// noteDrop emits the trace span of one dropped delivery, never sampled
// away, so drop outcomes are visible to the hook. The drop itself is
// counted by the caller in DispatchStats.
func (e *Engine) noteDrop(env *codec.Envelope, r telemetry.Reason) {
	e.tele.TraceRendered(env.IDText, env.Type, telemetry.StageDispatch, 0, r.String())
}

// rebuildTable republishes the dispatch table from the current
// subscription set. Called whenever the active set changes. Snapshot
// and Store happen under the engine mutex so concurrent
// activate/deactivate calls cannot publish tables out of snapshot
// order (a stale table overwriting a newer one would silently drop an
// active subscription from dispatch until the next change).
func (e *Engine) rebuildTable() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Store(newDispatchTable(e.reg, e.subs))
}
