package core

import (
	"bytes"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/obvent"
	"govents/internal/telemetry"
)

// Disseminator abstracts the dissemination substrate beneath an Engine:
// the local loopback (NewLocal) for single-process use, or a DACE node
// (package dace) for distributed operation. The engine encodes obvents
// into envelopes and hands them down; the disseminator hands arriving
// envelopes back up through the sink installed with SetSink.
type Disseminator interface {
	// PublishEnvelope names an encoded obvent (env.Name, which it sets)
	// and disseminates it to every process hosting matching
	// subscriptions (possibly including this one). It must not keep env,
	// its payload or a record sealed around it after it returns: the
	// engine recycles all three (codec.Release). dace seals it into a
	// record whose keepers copy it, Local's sink copies it into a lane.
	PublishEnvelope(env *codec.Envelope) error
	// SetSink installs the engine's delivery entry point. It must be
	// called once before any traffic flows. The sink's env, and the
	// bytes it names, are valid for the call only, so a sink copies what
	// it keeps of them.
	SetSink(sink func(env *codec.Envelope))
	// SubscriptionChanged notifies the substrate that the set of active
	// local subscriptions changed (for advertisement to filtering hosts
	// / membership maintenance), and carries the change, not the set:
	// active lists the subscriptions that became active or whose
	// description changed, removed the IDs of those no longer active.
	// The engine makes one call at a time, in the order of the changes.
	SubscriptionChanged(active []SubscriptionInfo, removed ...string) error
	// Close releases the substrate.
	Close() error
}

// SubscriptionInfo is the substrate-visible description of an active
// subscription: what the control plane advertises to other processes
// (paper §4.2 — subscription requests are themselves disseminated as
// obvents).
type SubscriptionInfo struct {
	// ID is the engine-unique subscription identifier.
	ID string
	// TypeName is the wire name of the subscribed type.
	TypeName string
	// Filter is the marshaled remote filter (nil when the subscription
	// uses an opaque local filter, which cannot leave the process —
	// paper §3.3.4).
	Filter []byte
	// DurableID is non-empty for certified subscriptions activated
	// with an identity that outlives the process (paper §3.4.1).
	DurableID string
	// Certified reports whether the subscribed type requests
	// certified delivery.
	Certified bool
}

// Equal reports whether two descriptions are identical (filters compare
// by their canonical wire bytes).
func (a SubscriptionInfo) Equal(b SubscriptionInfo) bool {
	return a.ID == b.ID && a.TypeName == b.TypeName && a.DurableID == b.DurableID &&
		a.Certified == b.Certified && bytes.Equal(a.Filter, b.Filter)
}

// Engine is one process's publish/subscribe runtime: it owns the type
// registry, the local subscription table, and the delivery pipeline
// that enforces the obvent semantics of §3.1.2.
type Engine struct {
	id    string
	reg   *obvent.Registry
	codec *codec.Codec
	diss  Disseminator

	mu     sync.Mutex
	subs   map[string]*Subscription
	nextID int
	closed bool
	// advMu orders the reports to the substrate: each reads the state of
	// the subscriptions it names under it, so the last report to name a
	// subscription carries that subscription's last state.
	advMu sync.Mutex

	// Inbound delivery: the sharded multi-lane dispatcher (lanes.go).
	// Causal and total-order classes hash onto lanes by class, every
	// other envelope by publisher; each lane keeps arrival order.
	lanes *laneSet

	// table is the copy-on-write dispatch index (see dispatch.go):
	// republished on every activation change, loaded lock-free per
	// envelope.
	table atomic.Pointer[dispatchTable]
	// handlerPanics counts application handler panics recovered by the
	// delivery pipeline: a panicking handler must not take down the
	// process or starve other subscriptions of the same event.
	handlerPanics atomic.Uint64
	// overload aggregates slow-consumer isolation accounting across all
	// subscription executors (quarantine transitions, mailbox drops).
	overload overloadCounters
	// stallBudget/mailbox configure slow-consumer isolation for every
	// subscription executor (WithSlowConsumerBudget); a zero budget
	// disables it.
	stallBudget time.Duration
	mailbox     int
	// naiveDispatch routes envelopes through the unindexed
	// per-subscription path (WithNaiveDispatch).
	naiveDispatch bool

	// tele is the engine's telemetry plane (per-stage latency
	// histograms, drop reasons, trace hook). May be nil: a nil plane is
	// fully disabled and every probe short-circuits on the nil check.
	tele *telemetry.Plane
	// log receives the engine's diagnostics (handler panics); defaults
	// to a discard logger so embedding programs stay silent unless they
	// inject one.
	log *slog.Logger
}

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	registry    *obvent.Registry
	naive       bool
	lanes       int
	tele        *telemetry.Plane
	teleSet     bool
	logger      *slog.Logger
	laneBound   int
	policy      OverloadPolicy
	spillDir    string
	stallBudget time.Duration
	mailbox     int
}

// WithRegistry makes the engine use a shared obvent type registry
// (useful when several engines in one process must agree on type
// names).
func WithRegistry(reg *obvent.Registry) Option {
	return func(c *engineConfig) { c.registry = reg }
}

// WithDispatchLanes sets the number of dispatch lanes. Zero (or leaving
// the option unset) means GOMAXPROCS; negative values are clamped to 1.
// A causal or total-order class drains through the lane its name hashes
// onto and everything else through its publisher's lane (lanes.go
// laneOf), so delivery semantics are unaffected by the lane count.
func WithDispatchLanes(n int) Option {
	return func(c *engineConfig) { c.lanes = n }
}

// WithNaiveDispatch disables the indexed dispatch pipeline: every
// envelope is matched by iterating the whole subscription table and
// evaluating each remote filter independently with filter.Evaluate.
// Delivery semantics are identical to the indexed path (property-tested);
// this exists as the transparency oracle and benchmark baseline, not for
// production use.
func WithNaiveDispatch() Option {
	return func(c *engineConfig) { c.naive = true }
}

// WithTelemetry installs the engine's telemetry plane. Passing nil
// disables telemetry entirely (every probe short-circuits on a nil
// check); leaving the option unset gives the engine its own enabled
// plane. Domains share one plane between the engine and the
// dissemination substrate so cross-layer stages land in one place.
func WithTelemetry(p *telemetry.Plane) Option {
	return func(c *engineConfig) { c.tele = p; c.teleSet = true }
}

// WithEngineLogger injects the logger the engine uses for diagnostics
// that have no error-return path (handler panics). Default: discard.
func WithEngineLogger(l *slog.Logger) Option {
	return func(c *engineConfig) { c.logger = l }
}

// WithLaneQueueBound caps every dispatch lane's in-memory queue at n
// envelopes. A full lane applies the engine's overload policy
// (WithOverloadPolicy). Zero or negative restores the default unbounded
// queues.
func WithLaneQueueBound(n int) Option {
	return func(c *engineConfig) { c.laneBound = n }
}

// WithOverloadPolicy selects what a bounded lane (WithLaneQueueBound)
// does once full: block the publisher path (default), shed the oldest
// queued envelope, or spill overflow to a per-lane durable segment log
// (requires WithSpillDir). Without a queue bound the policy is idle.
func WithOverloadPolicy(p OverloadPolicy) Option {
	return func(c *engineConfig) { c.policy = p }
}

// WithSpillDir hosts the per-lane overflow segment logs used by the
// OverloadSpill policy. The directory is created on first spill; an
// engine configured with OverloadSpill but no spill directory degrades
// to OverloadDropOldest with a logged warning.
func WithSpillDir(dir string) Option {
	return func(c *engineConfig) { c.spillDir = dir }
}

// WithSlowConsumerBudget enables slow-consumer isolation: a
// subscription whose handler has been running longer than stall without
// completing anything, while deliveries queue behind it, is quarantined
// — its delivery queue becomes a bounded mailbox of the given size
// (<= 0 selects a default of 1024) whose overflow is dropped for that
// subscription only, counted in DispatchStats.SlowConsumerDrops and
// tagged ErrSlowConsumer in telemetry, so a wedged handler can never
// head-of-line-block a dispatch lane or engine shutdown. A zero stall
// disables isolation (the default).
func WithSlowConsumerBudget(stall time.Duration, mailbox int) Option {
	return func(c *engineConfig) { c.stallBudget = stall; c.mailbox = mailbox }
}

// NewEngine creates an engine with identifier id over the given
// dissemination substrate.
func NewEngine(id string, diss Disseminator, opts ...Option) *Engine {
	cfg := engineConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.registry
	if reg == nil {
		reg = obvent.NewRegistry()
	}
	lanes := cfg.lanes
	if lanes == 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	tele := cfg.tele
	if !cfg.teleSet {
		tele = telemetry.NewPlane()
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	e := &Engine{
		id:            id,
		reg:           reg,
		codec:         codec.New(reg),
		diss:          diss,
		subs:          make(map[string]*Subscription),
		naiveDispatch: cfg.naive,
		tele:          tele,
		log:           logger,
		stallBudget:   cfg.stallBudget,
		mailbox:       cfg.mailbox,
	}
	if e.tele.Node() == "" {
		e.tele.SetNode(id)
	}
	e.table.Store(newDispatchTable(reg, nil))
	e.lanes = newLaneSet(reg, lanes, e.dispatch, e.tele, laneConfig{
		bound:    cfg.laneBound,
		policy:   cfg.policy,
		spillDir: cfg.spillDir,
		logger:   logger,
	})
	diss.SetSink(e.deliver)
	return e
}

// Telemetry returns the engine's telemetry plane (nil when disabled).
func (e *Engine) Telemetry() *telemetry.Plane { return e.tele }

// ID returns the engine identifier.
func (e *Engine) ID() string { return e.id }

// Registry returns the engine's obvent type registry, for registering
// application obvent classes and abstract types.
func (e *Engine) Registry() *obvent.Registry { return e.reg }

// Codec returns the engine's codec (used by substrates and tools).
func (e *Engine) Codec() *codec.Codec { return e.codec }

// Close deactivates all subscriptions and shuts the engine down.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	subs := make([]*Subscription, 0, len(e.subs))
	for _, s := range e.subs {
		subs = append(subs, s)
	}
	e.mu.Unlock()

	// One table rebuild and one report for them all: the substrate sends
	// a single final advertisement, not one per subscription.
	var changed []*Subscription
	for _, s := range subs {
		if s.setInactive() {
			changed = append(changed, s)
		}
	}
	if len(changed) > 0 {
		_ = e.subscriptionChanged(changed...) // best effort: the substrate closes next
	}
	for _, s := range subs {
		s.executor.close()
	}
	e.lanes.close()
	return e.diss.Close()
}

// Publish disseminates an obvent to all subscribers with matching
// subscriptions — the engine half of the publish primitive (§3.2).
// It is the distributed analog of object creation: each subscriber
// receives a distinct clone (§2.1.2).
func (e *Engine) Publish(o obvent.Obvent) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: %w", ErrCannotPublish, ErrEngineClosed)
	}
	if o == nil {
		return fmt.Errorf("%w: nil obvent", ErrCannotPublish)
	}
	env, err := e.codec.EncodeFrom(e.id, o)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCannotPublish, err)
	}
	err = e.diss.PublishEnvelope(env)
	codec.Release(env) // the disseminator keeps no envelope
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCannotPublish, err)
	}
	return nil
}

// deliver is the sink invoked by the disseminator for every inbound
// envelope. It copies the envelope into its dispatch lane (laneOf);
// actual matching and handler execution happen on the lane goroutines.
func (e *Engine) deliver(env *codec.Envelope) {
	e.lanes.route(env)
}

// register installs a constructed subscription (called by Subscribe).
func (e *Engine) register(s *Subscription) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("%w: %w", ErrCannotSubscribe, ErrEngineClosed)
	}
	e.nextID++
	s.id = fmt.Sprintf("%s/sub-%d", e.id, e.nextID)
	e.subs[s.id] = s
	return nil
}

// subscriptionChanged recompiles the dispatch index and reports to the
// substrate what has become of the subscriptions whose activation
// changed.
func (e *Engine) subscriptionChanged(changed ...*Subscription) error {
	e.rebuildTable()
	e.advMu.Lock()
	defer e.advMu.Unlock()
	var active []SubscriptionInfo
	var removed []string
	for _, s := range changed {
		if s.Active() {
			active = append(active, s.info())
		} else {
			removed = append(removed, s.id)
		}
	}
	return e.diss.SubscriptionChanged(active, removed...)
}

// marshalFilter is a variable so a test can count canonical marshals.
var marshalFilter = filter.MarshalCanonical

// SubscribeDynamic creates a subscription to the (possibly abstract)
// type t with an optional remote filter and an optional opaque local
// predicate. Most callers use the typed generic Subscribe /
// SubscribeLocal wrappers; this entry point exists for tooling (psc
// adapters) and tests that work with reflect.Type directly. Its handler
// takes each event boxed (codec.CloneSource.Clone).
//
// The returned subscription is inactive: call Activate to start
// receiving (paper §3.4.1).
func (e *Engine) SubscribeDynamic(t reflect.Type, remote *filter.Expr, local func(obvent.Obvent) bool, handler func(obvent.Obvent)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	return newSubscription(e, t, remote, cloneObvent, local, func(item *submission[obvent.Obvent]) { handler(item.o) })
}

// cloneObvent is a dynamic subscription's take: the event boxed.
func cloneObvent(src *codec.CloneSource) (obvent.Obvent, bool, error) {
	o, err := src.Clone()
	return o, err == nil, err
}

// newSubscription builds and registers an inactive subscription to t
// whose executor queues values of type V: take gives the subscription
// its own value of a matched event, local is its opaque local filter
// (nil for none), and handle hands a delivery to the application.
func newSubscription[V any](e *Engine, t reflect.Type, remote *filter.Expr,
	take func(*codec.CloneSource) (V, bool, error), local func(V) bool, handle func(*submission[V])) (*Subscription, error) {
	var filterBytes []byte
	if remote != nil {
		var err error
		if filterBytes, err = marshalFilter(remote); err != nil { // validates
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
	}
	typeName := obvent.TypeName(t)
	if t.Kind() == reflect.Interface {
		if _, err := e.reg.RegisterInterface(t); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
	}
	s := &Subscription{
		engine:       e,
		typeName:     typeName,
		goType:       t,
		remoteFilter: remote,
		filterBytes:  filterBytes,
	}
	x := newExecutor(func(item *submission[V]) bool { return invoke(s, handle, item) }, e.tele, e.stallBudget, e.mailbox, &e.overload)
	x.take, x.local = take, local
	s.executor = x
	if err := e.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Delivery is the per-event metadata handed to a delivery-aware
// handler: the event's identity as its envelope carries it (codec.Ident:
// a certified event's is the Name its stored record spells, with no
// text) and the event's concrete class name. Durable subscriptions
// acknowledge deliveries in their inbox keyed by exactly this pair, and
// render no text; Ident.Text does, for a handler that needs it.
type Delivery struct {
	Ident codec.Ident
	Class string
}
