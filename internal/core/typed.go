package core

import (
	"fmt"
	"reflect"

	"govents/internal/accessor"
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
	emb, ok := findEmbedded(rv, target)
	if !ok {
		return zero, false
	}
	v, ok := emb.Interface().(T)
	return v, ok
}

// findEmbedded locates the (transitively) embedded field of type target.
func findEmbedded(v reflect.Value, target reflect.Type) (reflect.Value, bool) {
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, false
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.Anonymous {
			continue
		}
		fv := v.Field(i)
		for fv.Kind() == reflect.Pointer && !fv.IsNil() {
			fv = fv.Elem()
		}
		if fv.Type() == target {
			return fv, true
		}
		if emb, ok := findEmbedded(fv, target); ok {
			return emb, true
		}
	}
	return reflect.Value{}, false
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
// subscriber. Every typed subscription but a durable one is made here,
// and it turns T's accessors into direct calls for this process's
// filters (accessor.Register).
func SubscribeFiltered[T obvent.Obvent](e *Engine, f *filter.Expr, pred func(T) bool, handler func(T)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	accessor.Register[T]()
	t := obvent.TypeOf[T]()
	var local func(obvent.Obvent) bool
	if pred != nil {
		local = func(o obvent.Obvent) bool {
			v, ok := As[T](o)
			return ok && pred(v)
		}
	}
	return e.SubscribeDynamic(t, f, local, func(o obvent.Obvent) {
		if v, ok := As[T](o); ok {
			handler(v)
		}
	})
}
