package obvent

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// A Registry tracks the obvent types known to a process and the subtype
// relation between them. It is the runtime analog of the type knowledge
// the paper's psc precompiler extracts at compile time: it maps wire-level
// type names to Go types and answers the type-based matching question
// "is an instance of concrete class C also an instance of subscribed
// type T?" (paper §2.2).
//
// Two declaration forms are supported, mirroring the paper's §2.2:
//
//   - Explicit declaration: a Go interface registered with RegisterInterface
//     declares an abstract obvent type; any registered concrete type whose
//     pointer or value type implements it is a subtype.
//   - Implicit declaration: a registered concrete struct type declares a
//     type; a struct that *embeds* another registered obvent struct is a
//     subtype of the embedded type (the analog of class inheritance).
//
// The zero value is not usable; create registries with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]entry
	ifaces map[string]reflect.Type // registered abstract types

	// gen counts mutations of the type universe. Caches derived from
	// conformance queries (e.g. the engine's per-class dispatch buckets)
	// key on it to detect staleness without taking the registry lock.
	gen atomic.Uint64

	// names caches NameOf answers (reflect.Type of a registered concrete
	// struct -> wire name), so a publish does not rebuild the name. Types
	// are never unregistered, so entries hold forever.
	names sync.Map

	// semCache caches ClassSemantics answers (wire name -> *classSem),
	// stamped with the generation they were computed under. Lookups are
	// lock-free; entries are recomputed lazily after a registry mutation.
	semCache sync.Map
}

// classSem is one cached ClassSemantics answer.
type classSem struct {
	gen uint64
	sem Semantics
}

type entry struct {
	typ    reflect.Type // concrete struct type (not pointer)
	supers map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]entry),
		ifaces: make(map[string]reflect.Type),
	}
}

// TypeName returns the wire-level name of a Go type: its package path
// qualified name.
func TypeName(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.PkgPath() == "" {
		return t.Name()
	}
	return t.PkgPath() + "." + t.Name()
}

// TypeOf returns the reflect.Type described by the type parameter, which
// may be an interface type (unlike reflect.TypeOf on a value).
func TypeOf[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}

// Register records the concrete type of sample as an obvent class and
// returns its wire name. Registration is idempotent. The sample must be a
// struct or pointer to struct embedding Base.
func (r *Registry) Register(sample Obvent) (string, error) {
	t := reflect.TypeOf(sample)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return "", fmt.Errorf("obvent: register %s: obvent classes must be structs", t)
	}
	name := TypeName(t)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return name, nil
	}
	r.byName[name] = entry{typ: t, supers: r.computeSupersLocked(t)}
	// Registering a new class can extend the subtype closure of classes
	// that embed it, and vice versa; recompute everything. Registration
	// is rare (startup time), so O(n^2) here is irrelevant.
	r.recomputeLocked()
	r.gen.Add(1)
	return name, nil
}

// MustRegister is Register, panicking on error. Intended for package-level
// setup in examples and tests.
func (r *Registry) MustRegister(sample Obvent) string {
	name, err := r.Register(sample)
	if err != nil {
		panic(err)
	}
	return name
}

// RegisterInterface records an abstract obvent type (a Go interface that
// embeds Obvent) so that subscriptions to it can be matched by name on
// remote hosts. Use the TypeOf helper to obtain the reflect.Type:
//
//	reg.RegisterInterface(obvent.TypeOf[StockObvent]())
func (r *Registry) RegisterInterface(t reflect.Type) (string, error) {
	if t.Kind() != reflect.Interface {
		return "", fmt.Errorf("obvent: RegisterInterface: %s is not an interface", t)
	}
	if !t.Implements(TypeOf[Obvent]()) && t != TypeOf[Obvent]() {
		return "", fmt.Errorf("obvent: RegisterInterface: %s does not embed Obvent", t)
	}
	name := TypeName(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ifaces[name] = t
	r.recomputeLocked()
	r.gen.Add(1)
	return name, nil
}

// Gen returns the registry's mutation generation: it changes whenever a
// class or abstract type is registered, so lock-free consumers can
// detect that previously computed conformance answers may be stale.
func (r *Registry) Gen() uint64 { return r.gen.Load() }

// recomputeLocked rebuilds the supertype closure of every registered class.
func (r *Registry) recomputeLocked() {
	for name, e := range r.byName {
		e.supers = r.computeSupersLocked(e.typ)
		r.byName[name] = e
	}
}

// computeSupersLocked returns the names of all registered supertypes of
// concrete struct type t: registered interfaces it implements and
// registered structs it embeds (transitively).
func (r *Registry) computeSupersLocked(t reflect.Type) map[string]bool {
	supers := make(map[string]bool)
	pt := reflect.PointerTo(t)
	for name, it := range r.ifaces {
		if t.Implements(it) || pt.Implements(it) {
			supers[name] = true
		}
	}
	var walkEmbedded func(st reflect.Type)
	walkEmbedded = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if !f.Anonymous {
				continue
			}
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() != reflect.Struct {
				continue
			}
			if _, ok := r.byName[TypeName(ft)]; ok {
				supers[TypeName(ft)] = true
			}
			walkEmbedded(ft)
		}
	}
	walkEmbedded(t)
	return supers
}

// ClassSemantics returns the type-level Semantics of the registered
// class named name: the QoS resolution of a zero value of the class, so
// the value-dependent fields (Priority, TTL, Birth) are zero while the
// type-derived ones (Reliability, Ordering, Timely, Prioritary, Dropped)
// are exact. It is the cheap per-class lookup behind semantics-aware
// routing decisions (e.g. the engine's dispatch lanes): after the first
// call for a class the answer is a single lock-free map hit, invalidated
// by the registry generation counter. Unknown names report ok == false
// and are never cached (they may be registered later).
func (r *Registry) ClassSemantics(name string) (sem Semantics, ok bool) {
	gen := r.gen.Load()
	if v, hit := r.semCache.Load(name); hit {
		cs := v.(*classSem)
		if cs.gen == gen {
			return cs.sem, true
		}
	}
	t, known := r.TypeByName(name)
	if !known {
		return Semantics{}, false
	}
	zero, isObvent := reflect.New(t).Elem().Interface().(Obvent)
	if !isObvent {
		return Semantics{}, false
	}
	sem = Resolve(zero)
	r.semCache.Store(name, &classSem{gen: gen, sem: sem})
	return sem, true
}

// NameOf returns the wire name of o's dynamic type, registering it if
// needed.
func (r *Registry) NameOf(o Obvent) (string, error) {
	t := reflect.TypeOf(o)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if name, ok := r.names.Load(t); ok {
		return name.(string), nil
	}
	name := TypeName(t)
	r.mu.RLock()
	_, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		var err error
		if name, err = r.Register(o); err != nil {
			return "", err
		}
	}
	r.names.Store(t, name)
	return name, nil
}

// TypeByName returns the registered concrete type for a wire name.
func (r *Registry) TypeByName(name string) (reflect.Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return e.typ, true
}

// Supertypes returns the sorted wire names of all registered supertypes of
// the class named name (not including the class itself).
func (r *Registry) Supertypes(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(e.supers))
	for s := range e.supers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Classes returns the sorted wire names of all registered concrete classes.
func (r *Registry) Classes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ConformsTo reports whether an instance of the concrete class named
// concrete conforms to the subscribed type named target: either the same
// class, a registered interface it implements, or a registered struct it
// embeds. This is the wire-level (name-based) matching used by remote
// hosts that may not host the Go types themselves.
func (r *Registry) ConformsTo(concrete, target string) bool {
	if concrete == target {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[concrete]
	if !ok {
		return false
	}
	return e.supers[target]
}

// Conforms reports whether obvent o conforms to the Go type target
// (interface or struct), using Go-level type checks. It is the local
// (typed) matching complement of ConformsTo.
func Conforms(o Obvent, target reflect.Type) bool {
	t := reflect.TypeOf(o)
	if target.Kind() == reflect.Interface {
		return t.Implements(target)
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	for target.Kind() == reflect.Pointer {
		target = target.Elem()
	}
	if t == target {
		return true
	}
	return embedsStruct(t, target)
}

// embedsStruct reports whether struct type t transitively embeds struct
// type target (the implicit-declaration subtype relation of paper §2.2).
func embedsStruct(t, target reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.Anonymous {
			continue
		}
		ft := f.Type
		for ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft == target || embedsStruct(ft, target) {
			return true
		}
	}
	return false
}
