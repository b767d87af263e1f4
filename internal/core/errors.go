// Package core implements the paper's primary contribution: the two
// linguistic primitives of type-based publish/subscribe — publish and
// subscribe — as a typed Go API (paper §2.3, §3).
//
// The paper integrates the primitives into Java via a precompiler (psc)
// that generates one typed adapter per obvent type (Figure 6). Go's
// generics let this package expose the same statically typed surface
// without code generation:
//
//	sub, err := core.Subscribe(engine, filter, func(q StockQuote) {
//		fmt.Println("Got offer:", q.Price)
//	})
//	err = sub.Activate()
//	...
//	err = core.Publish(engine, StockQuote{Company: "Telco Mobiles", Price: 80})
//
// mirrors the paper's
//
//	Subscription s = subscribe (StockQuote q) {filter} {handler};
//	s.activate();
//	publish q;
//
// The cmd/psc tool additionally reproduces the paper's precompiler
// architecture by generating explicit XxxAdapter types; both roads lead
// to the same engine below.
//
// # Dispatch architecture
//
// Inbound envelopes flow through a sharded, indexed, allocation-light
// pipeline (see lanes.go and dispatch.go). A router first shards every
// envelope across N dispatch lanes (WithDispatchLanes, default
// GOMAXPROCS); each lane is the same arrival-ordered queue drained by
// its own goroutine, and runs the indexed matching pipeline with its own
// private scratch and counters:
//
//	envelope ─► laneOf ─► lane[hash(class or publisher) % N]
//	         ─► type index ─► compound match ─► one obvent per match ─► subscription executor
//
// Lane routing realizes the transmission semantics of §3.1.2 with the
// least serialization they permit. Each ordering is a property of what
// one multicast group releases, which reaches the engine one envelope at
// a time and in order, so routing only has to keep each ordered stream
// on one lane:
//
//   - Causal and total-order classes hash by class: one class's
//     envelopes share a lane and keep their release order. Two ordered
//     classes on different lanes never wait for each other.
//   - Every other envelope — FIFO, Prioritary and unordered — hashes by
//     publisher, so one publisher's envelopes keep their arrival order
//     relative to each other, which is the whole FIFO contract.
//
// The decision reads the envelope's wire metadata and, for an envelope
// whose ordering was not stamped, a per-class semantics lookup cached in
// the type registry (Registry.ClassSemantics, invalidated by the
// registry generation counter) — a lock-free map hit, never a payload
// decode, with zero steady-state allocations.
//
// Priority acts where backlog forms at the handler: a subscription's
// executor queues a delivery behind every queued delivery of at least
// its priority, so a Prioritary obvent overtakes lower-priority
// deliveries waiting for that subscription's handler, whichever lane
// they came by. It does not overtake envelopes still waiting on its
// lane to be matched. Ordered deliveries run alone on the executor, in
// submit order.
//
// Within a lane, matching is indexed:
//
//  1. Type index: every activation change compiles an immutable
//     dispatchTable published through an atomic pointer; the dispatcher
//     resolves the envelope's wire type to its class plan (candidates
//     expanded through the registry's conformance relation) with a
//     lock-free load, instead of snapshotting and sorting the
//     subscription table per envelope.
//  2. Compound match: each plan factors its candidates' remote filters
//     into one matching.Compound (paper §2.3.2, [ASS+99]), so an event's
//     conditions are evaluated once across all subscribers — shared path
//     resolution, common-subexpression elimination, threshold binary
//     search — rather than once per subscription.
//  3. One obvent per match: the envelope is decoded once into a canonical
//     value used only for remote-filter matching; obvent local uniqueness
//     (§2.1.2) is paid only for subscriptions whose remote matching
//     passed — a deep copy per match, or for a flat class one immutable
//     box per envelope (dispatch.go) — cutting decode work from
//     O(subscriptions) to O(matches)+1.
//
// Engine.Stats exposes the pipeline's cumulative delivery counters
// (folded across lanes; Engine.LaneStats breaks them out per lane);
// WithNaiveDispatch retains the unindexed reference path as the
// transparency oracle and benchmark baseline.
package core

import "errors"

// The notification errors mirror the paper's exception hierarchy
// (Figure 3: NotificationException and subclasses).
var (
	// ErrCannotPublish signals a problem transmitting an obvent
	// (CannotPublishException).
	ErrCannotPublish = errors.New("core: cannot publish")
	// ErrCannotSubscribe signals that a subscription cannot be issued,
	// e.g. it is already activated (CannotSubscribeException).
	ErrCannotSubscribe = errors.New("core: cannot subscribe")
	// ErrCannotUnsubscribe signals that a subscription cannot be
	// cancelled, e.g. it is not active (CannotUnsubscribeException).
	ErrCannotUnsubscribe = errors.New("core: cannot unsubscribe")
	// ErrEngineClosed is returned by operations on a closed engine.
	ErrEngineClosed = errors.New("core: engine closed")
	// ErrSlowConsumer tags deliveries dropped because a quarantined
	// slow consumer's bounded mailbox overflowed (slow-consumer
	// isolation, WithSlowConsumerBudget). It is an accounting sentinel:
	// such drops appear in DispatchStats.SlowConsumerDrops (drop reason
	// "slow_consumer"); other subscriptions' deliveries are unaffected.
	ErrSlowConsumer = errors.New("core: slow consumer")
)
