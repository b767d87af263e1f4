package core

import (
	"fmt"
	"reflect"
	"sync"

	"govents/internal/codec"
	"govents/internal/filter"
	"govents/internal/obvent"
)

// As converts a received obvent to the subscribed type T. For interface
// types this is a plain assertion. For struct types it is the Go analog
// of a Java upcast: when the dynamic type is a subtype by embedding
// (implicit declaration, paper §2.2), the embedded T value — the
// supertype view of the obvent — is extracted. Fields of the subtype
// are invisible through that view, exactly as with an upcast.
func As[T obvent.Obvent](o obvent.Obvent) (T, bool) {
	if v, ok := o.(T); ok {
		return v, true
	}
	var zero T
	target := obvent.TypeOf[T]()
	if target.Kind() == reflect.Interface {
		return zero, false
	}
	rv := reflect.ValueOf(o)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return zero, false
		}
		rv = rv.Elem()
	}
	path := embeddedPath(rv.Type(), target)
	if path == nil {
		return zero, false
	}
	emb, err := rv.FieldByIndexErr(path)
	if err != nil {
		return zero, false // a nil embedded pointer on the way
	}
	v, ok := emb.Interface().(T)
	return v, ok
}

// embeddedPath is the field index path from struct type t to its first
// (transitively) embedded field of type target, depth first, through
// embedded pointers; nil if t embeds no target.
func embeddedPath(t, target reflect.Type) []int {
	if t.Kind() != reflect.Struct {
		return nil
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.Anonymous {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft == target {
			return []int{i}
		}
		if sub := embeddedPath(ft, target); sub != nil {
			return append([]int{i}, sub...)
		}
	}
	return nil
}

// takeAs returns a typed subscription's take (executor): the value of
// type T the subscription queues for one matched event. An interface T
// takes the event boxed (CloneSource.Clone) and asserts it. A struct T
// takes a copy of the decoded event (CloneSource.Value), with no box:
// the event itself when its class is T, or else the T its class embeds
// (§2.2), copied out along the field path embeddedPath resolves once per
// class the subscription sees.
func takeAs[T obvent.Obvent]() func(*codec.CloneSource) (T, bool, error) {
	target := obvent.TypeOf[T]()
	if target.Kind() == reflect.Interface {
		return func(src *codec.CloneSource) (v T, ok bool, err error) {
			o, err := src.Clone()
			if err != nil {
				return v, false, err
			}
			v, ok = o.(T)
			return v, ok, nil
		}
	}
	var paths sync.Map // class reflect.Type -> []int, nil for a class with no T
	return func(src *codec.CloneSource) (v T, ok bool, err error) {
		p, err := src.Value()
		if err != nil {
			return v, false, err
		}
		if pt, ok := p.(*T); ok {
			return *pt, true, nil
		}
		class := src.Type()
		entry, hit := paths.Load(class)
		if !hit {
			entry, _ = paths.LoadOrStore(class, embeddedPath(class, target))
		}
		path := entry.([]int)
		if path == nil {
			return v, false, nil
		}
		emb, err := reflect.ValueOf(p).Elem().FieldByIndexErr(path)
		if err != nil {
			return v, false, nil // a nil embedded pointer on the way
		}
		// The embedded value is addressable (p is a pointer): its address
		// boxes as a pointer, with no allocation, and the copy is v's.
		return *emb.Addr().Interface().(*T), true, nil
	}
}

// Publish is the publish primitive (paper §3.2): it asynchronously
// disseminates the obvent to every concerned notifiable, creating a
// distinct clone per subscriber. The static type constraint plays the
// role of the paper's compile-time check that the published expression
// is a non-null Obvent.
func Publish[T obvent.Obvent](e *Engine, o T) error {
	return e.Publish(o)
}

// Subscribe is the subscribe primitive (paper §2.3.2, §3.3) with a
// migratable filter: it combines a subscription to type T — which, by
// type-based matching, also receives all subtypes of T — with a filter
// expression and a typed handler closure.
//
// The filter is a first-class expression tree (package filter), the Go
// rendering of the paper's deferred code evaluation: it can be shipped
// to filtering hosts and factored with other subscribers' filters.
// Accessors it names must be pure — the engine evaluates all remote
// filters of one event against a single shared clone (see package
// filter). Pass nil (or filter.True()) to receive every instance of T,
// the paper's "subscribe (T t) { return true; } {...}".
//
// The returned Subscription is inactive until Activate is called.
func Subscribe[T obvent.Obvent](e *Engine, f *filter.Expr, handler func(T)) (*Subscription, error) {
	return SubscribeFiltered(e, f, nil, handler)
}

// SubscribeLocal is the subscribe primitive with an opaque local
// predicate: the Go analog of a filter closure that violates the
// mobility restrictions of §3.3.4 and therefore "is applied locally" at
// the subscriber. It has full expressive power (arbitrary Go code, free
// variables) but none of the factoring or traffic-saving benefits of a
// migratable filter.
func SubscribeLocal[T obvent.Obvent](e *Engine, pred func(T) bool, handler func(T)) (*Subscription, error) {
	return SubscribeFiltered(e, nil, pred, handler)
}

// SubscribeFiltered combines a migratable filter with an additional
// local predicate; the remote filter prunes traffic at filtering hosts,
// the local predicate applies the residual opaque logic at the
// subscriber. Every typed subscription but a durable one is made here.
// The predicate and the handler run on the subscription's own value
// (takeAs): for a struct T, a copy of the decoded event that nothing
// boxes.
func SubscribeFiltered[T obvent.Obvent](e *Engine, f *filter.Expr, pred func(T) bool, handler func(T)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	return newSubscription(e, obvent.TypeOf[T](), f, takeAs[T](), pred, func(item *submission[T]) { handler(item.o) })
}

// SubscribeDelivery is Subscribe for a handler that needs the delivery
// metadata beside the event: the entry point durable subscriptions
// build on, to acknowledge exactly the delivered event.
func SubscribeDelivery[T obvent.Obvent](e *Engine, f *filter.Expr, handler func(T, Delivery)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	return newSubscription(e, obvent.TypeOf[T](), f, takeAs[T](), nil, func(item *submission[T]) {
		handler(item.o, Delivery{Ident: item.ident(), Class: item.class})
	})
}
