package govents

import (
	"fmt"
	"reflect"

	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/obvent"
)

// A Subscription is the handle returned by the subscribe primitives: it
// identifies one subscription and controls its lifecycle (paper §3.4)
// and thread semantics (§3.3.5). Subscriptions returned by Subscribe,
// SubscribeLocal and SubscribeFiltered are already active;
// SubscribeInactive returns the paper's two-phase form, activated
// explicitly. Activation and deactivation can be interleaved without
// limit; a deactivated handle stays valid.
type Subscription struct {
	s *core.Subscription
	// release, when set (durable subscriptions), frees the domain's
	// durable-identity claim on deactivation.
	release func()
}

// ID returns the domain-unique subscription identifier.
func (s *Subscription) ID() string { return s.s.ID() }

// TypeName returns the wire name of the subscribed type.
func (s *Subscription) TypeName() string { return s.s.TypeName() }

// Active reports whether the subscription currently receives obvents.
func (s *Subscription) Active() bool { return s.s.Active() }

// Activate starts delivery — the effective action of subscribing
// (§3.4.1). Activating an already active subscription fails with
// ErrCannotSubscribe. It is not a barrier for events already queued in
// this process: each is matched when its lane dispatches it, so the
// subscription may receive one that arrived before the call (package
// doc, "Activation is not a barrier").
func (s *Subscription) Activate() error { return s.s.Activate() }

// ActivateDurable activates the subscription under a stable durable
// identity: the subscription's lifetime may exceed the hosting
// process, and a recovering process reclaims it — with its missed
// certified obvents — by presenting the same identity (§3.4.1).
func (s *Subscription) ActivateDurable(durableID string) error {
	return s.s.ActivateDurable(durableID)
}

// Deactivate stops delivery — the action of unsubscribing (§3.4.2).
// Deactivating an inactive subscription fails with
// ErrCannotUnsubscribe. Deactivating a durable subscription releases
// its durable-identity claim, letting a later SubscribeDurable in the
// same domain member reclaim the identity. Its return guarantees only
// that no dispatch starting afterwards delivers to the subscription; a
// delivery already under way may still run the handler.
func (s *Subscription) Deactivate() error {
	if err := s.s.Deactivate(); err != nil {
		return err
	}
	if s.release != nil {
		s.release()
	}
	return nil
}

// SetSingleThreading makes the handler process at most one obvent at a
// time (paper §3.3.5).
func (s *Subscription) SetSingleThreading() { s.s.SetSingleThreading() }

// SetMultiThreading lets the handler process up to maxNb obvents
// concurrently; maxNb <= 0 means unlimited, the paper's default for
// unordered obvents.
func (s *Subscription) SetMultiThreading(maxNb int) { s.s.SetMultiThreading(maxNb) }

// Subscribe is the subscribe primitive (paper §2.3.2, §3.3): it
// combines a subscription to type T — which, by type-based matching,
// also receives all subtypes of T — with an optional migratable filter
// and a typed handler, and activates it immediately. Pass a nil filter
// to receive every instance of T.
//
// The filter is a first-class expression tree (govents/filter) that can
// be shipped to filtering hosts and factored with other subscribers'
// filters; accessors it names must be pure. T may be a struct obvent
// class or an interface (abstract obvent type); struct classes are
// registered lazily.
//
// For the paper's two-phase form — subscribe now, activate later — use
// SubscribeInactive.
func Subscribe[T Obvent](d *Domain, f *filter.Expr, handler func(T)) (*Subscription, error) {
	return subscribe[T](d, f, nil, handler, true)
}

// SubscribeInactive is Subscribe without the implicit activation: the
// returned subscription receives nothing until Activate (or
// ActivateDurable) is called — exactly the paper's
//
//	Subscription s = subscribe (StockQuote q) {filter} {handler};
//	s.activate();
func SubscribeInactive[T Obvent](d *Domain, f *filter.Expr, handler func(T)) (*Subscription, error) {
	return subscribe[T](d, f, nil, handler, false)
}

// SubscribeLocal subscribes with an opaque local predicate — the Go
// analog of a filter closure that violates the mobility restrictions
// of §3.3.4 and therefore runs at the subscriber: full expressive
// power, none of the traffic-saving benefits of a migratable filter.
// The subscription is active.
func SubscribeLocal[T Obvent](d *Domain, pred func(T) bool, handler func(T)) (*Subscription, error) {
	return subscribe[T](d, nil, pred, handler, true)
}

// SubscribeFiltered combines a migratable filter with an additional
// local predicate: the filter prunes traffic at filtering hosts, the
// predicate applies residual opaque logic at the subscriber. The
// subscription is active.
func SubscribeFiltered[T Obvent](d *Domain, f *filter.Expr, pred func(T) bool, handler func(T)) (*Subscription, error) {
	return subscribe[T](d, f, pred, handler, true)
}

// subscribe builds, registers and optionally activates a typed
// subscription.
func subscribe[T Obvent](d *Domain, f *filter.Expr, pred func(T) bool, handler func(T), activate bool) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	t := obvent.TypeOf[T]()
	if t.Kind() == reflect.Struct {
		// Lazy registration: first subscribe of a struct class
		// registers it (interfaces are registered by the engine).
		sample, ok := reflect.New(t).Elem().Interface().(Obvent)
		if !ok {
			return nil, fmt.Errorf("%w: %s is not an obvent class", ErrCannotSubscribe, t)
		}
		if _, err := d.reg.Register(sample); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
	}
	cs, err := core.SubscribeFiltered(d.eng, f, pred, handler)
	if err != nil {
		return nil, err
	}
	sub := &Subscription{s: cs}
	if activate {
		if err := sub.Activate(); err != nil {
			return nil, err
		}
	}
	return sub, nil
}
