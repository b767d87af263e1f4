// Package accessor compiles filter accessor paths against concrete Go
// types, turning the per-event reflection of filter.ResolvePath — a
// MethodByName / FieldByName walk per path segment per event — into a
// flat program of index-based steps (Field(i), Elem, Method(i)) built
// once per (event type, path) pair.
//
// The paper's content-based model evaluates accessor-path predicates
// against every published obvent (§3.3.4); after the compound matcher
// factored redundant conditions (PR 1) and the routing plane hoisted
// filters to publishers (PR 3), name-based reflection was the dominant
// per-event cost on both hot paths. A type's layout never changes, so
// everything name-based about a path — which field index chain or
// method index a segment resolves to, where pointers must be
// dereferenced, whether the pointer method set is reachable — is a
// function of the root type alone and can be decided once.
//
// Compile simulates filter.ResolvePath at the type level and emits the
// step sequence ResolvePath would have taken; Program.Resolve replays
// it with no name lookups and, for pure field/deref paths, zero heap
// allocations (pinned by test). A path that cannot compile (missing
// segment, non-struct hop, malformed accessor signature) reports an
// error at compile time; callers fall back to per-event ResolvePath,
// which fails the same way, so fail-open semantics are byte-for-byte
// unchanged — equivalence with the reflective oracle is property-tested
// over randomized values and paths.
//
// A one-segment path naming a value-receiver, niladic accessor with an
// unnamed basic result (bool, string, an int or uint kind, float32,
// float64) is a direct call, with no allocation and no reflect Call:
// Compile builds the root class's getter table once, from its
// reflect.Type alone, so every class gets direct calls, the classes of
// a publisher-only node that evaluates its subscribers' filters
// included. A getter calls the pointer method (*T).M, the wrapper Go
// generates for a value method, on the address the event's interface
// holds; this is the package's one use of unsafe. Named results (type
// Price float64), accessors on nested values, and pointer-shaped
// classes (a pointer, or a struct holding one pointer and nothing
// else, which an interface holds by value, not by address) keep the
// reflective step. Both give the same constant and the same error, a
// panicking accessor's included, so purity, fail-open outcomes and
// panic handling do not depend on which runs.
package accessor

import (
	"fmt"
	"reflect"
	"strings"

	"govents/internal/filter"
)

// Program is one compiled accessor path, valid for exactly one root
// type (the dynamic type of the event as handed to reflect.ValueOf).
// Programs are immutable and safe for concurrent use.
type Program struct {
	root  reflect.Type
	path  string
	steps []step
	// direct is the root's getter for a one-segment accessor path, if
	// its table has one (gettersFor); Constant calls it instead of the
	// steps.
	direct getter
}

// stepOp discriminates program steps.
type stepOp uint8

const (
	// opField replaces the current value with its idx-th field.
	opField stepOp = iota + 1
	// opDeref replaces the current pointer with its pointee; a nil
	// pointer aborts resolution with the step's preallocated error.
	opDeref
	// opMethod calls a method of the current value's own method set
	// (fn, or for an interface the idx-th method) and continues with its
	// single result.
	opMethod
	// opAddrMethod calls fn, a method of the current value's pointer
	// type, on the value's address (the value is addressable at this
	// point by construction) and continues with its single result.
	opAddrMethod
)

// step is one instruction of a compiled path.
type step struct {
	op  stepOp
	idx int
	// fn is a concrete receiver's method as a function of the receiver
	// (reflect.Method.Func): calling it costs no method value, which
	// v.Method(idx) allocates. An interface's method set has no Func.
	fn reflect.Value
	// err is the step's resolution failure, preallocated at compile time
	// so the nil-pointer fail path does not allocate per event.
	err error
}

// Compile builds the accessor program for path against root, the
// dynamic type of the values the program will resolve. It mirrors
// filter.ResolvePath segment by segment: accessor methods are preferred
// over fields, the pointer method set is used wherever ResolvePath
// would reach it through CanAddr, pointers are dereferenced for field
// access, and embedded (promoted) fields expand to their full index
// chain with intermediate dereferences. A path that ResolvePath could
// never resolve for this type fails here instead, once, with an error;
// resolution of a compiled program can then only fail on value-dependent
// conditions (nil pointers along the path).
func Compile(root reflect.Type, path []string) (*Program, error) {
	if root == nil {
		return nil, fmt.Errorf("accessor: nil root type")
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("accessor: empty path")
	}
	p := &Program{root: root, path: strings.Join(path, ".")}
	t := root
	// addressable tracks whether the current value will be addressable
	// at run time. reflect.ValueOf output never is; dereferencing a
	// pointer always yields an addressable value; field access preserves
	// the struct's addressability; method results are fresh and never
	// addressable. This is decidable at the type level, which is what
	// lets the pointer-method-set decision compile.
	addressable := false
	for _, seg := range path {
		var err error
		t, addressable, err = p.compileSegment(t, addressable, seg)
		if err != nil {
			return nil, err
		}
	}
	if len(path) == 1 {
		p.direct = gettersFor(root)[path[0]]
	}
	return p, nil
}

// compileSegment emits the steps for one path segment, returning the
// result type and its addressability.
func (p *Program) compileSegment(t reflect.Type, addressable bool, seg string) (reflect.Type, bool, error) {
	// Accessor method first (encapsulation, LP2), through the richest
	// method set ResolvePath would reach: the pointer type's when the
	// value will be addressable, the value's own otherwise — and for
	// pointers and interfaces always the value's own (a pointer's
	// method set is already complete; a pointer-to-interface has none).
	if t.Kind() != reflect.Pointer && t.Kind() != reflect.Interface && addressable {
		if m, ok := reflect.PointerTo(t).MethodByName(seg); ok {
			out, err := accessorResult(m, false, seg)
			if err != nil {
				return nil, false, err
			}
			p.steps = append(p.steps, step{op: opAddrMethod, fn: m.Func})
			return out, false, nil
		}
	} else if m, ok := t.MethodByName(seg); ok {
		out, err := p.emitMethod(t, m, seg)
		return out, false, err
	}
	// Dereference pointers, retrying the value method set after each hop
	// exactly as ResolvePath's deref loop does (only multi-level
	// pointers can gain a method here).
	for t.Kind() == reflect.Pointer {
		p.steps = append(p.steps, step{
			op:  opDeref,
			err: fmt.Errorf("accessor: segment %q on nil pointer", seg),
		})
		t = t.Elem()
		addressable = true
		if m, ok := t.MethodByName(seg); ok {
			out, err := p.emitMethod(t, m, seg)
			return out, false, err
		}
	}
	if t.Kind() != reflect.Struct {
		return nil, false, fmt.Errorf("accessor: segment %q on non-struct %s", seg, t.Kind())
	}
	f, ok := t.FieldByName(seg)
	if !ok {
		return nil, false, fmt.Errorf("accessor: no accessor or field %q on %s", seg, t)
	}
	// Promoted fields expand to their index chain; an embedded pointer
	// between hops dereferences (failing on nil like FieldByIndexErr).
	cur := t
	for k, idx := range f.Index {
		p.steps = append(p.steps, step{op: opField, idx: idx})
		cur = cur.Field(idx).Type
		if k < len(f.Index)-1 && cur.Kind() == reflect.Pointer {
			p.steps = append(p.steps, step{
				op:  opDeref,
				err: fmt.Errorf("accessor: segment %q through nil embedded pointer", seg),
			})
			cur = cur.Elem()
			addressable = true
		}
	}
	return cur, addressable, nil
}

// emitMethod validates one value-method-set accessor hit and appends
// its step: for interface receivers the step carries a preallocated
// nil-interface error (reflect.Value.Method panics on a nil interface
// value, where the reflective fallback fails with a plain error;
// Resolve guards with this error instead).
func (p *Program) emitMethod(t reflect.Type, m reflect.Method, seg string) (reflect.Type, error) {
	iface := t.Kind() == reflect.Interface
	out, err := accessorResult(m, iface, seg)
	if err != nil {
		return nil, err
	}
	st := step{op: opMethod, idx: m.Index, fn: m.Func}
	if iface {
		st.err = fmt.Errorf("accessor: segment %q on nil interface", seg)
	}
	p.steps = append(p.steps, st)
	return out, nil
}

// accessorResult validates the paper's accessor shape — niladic, one
// result (§3.3.4) — and returns the result type. Interface method
// descriptors carry no receiver parameter; concrete ones do.
func accessorResult(m reflect.Method, iface bool, seg string) (reflect.Type, error) {
	mt := m.Type
	wantIn := 1
	if iface {
		wantIn = 0
	}
	if mt.NumIn() != wantIn || mt.NumOut() != 1 {
		return nil, fmt.Errorf("accessor: accessor %q must be niladic with one result", seg)
	}
	return mt.Out(0), nil
}

// Root returns the type the program was compiled for.
func (p *Program) Root() reflect.Type { return p.root }

// Path returns the dotted path the program resolves.
func (p *Program) Path() string { return p.path }

// Resolve replays the program against one event value (which must have
// the program's root type) and returns the reflected result. Field and
// deref steps perform zero heap allocations. A method step is a reflect
// Call of the method as a function of its receiver, with the Call's own
// allocations and none for a method value (an interface receiver's
// method, which has no such function, still takes one); Constant may
// call a direct getter instead.
// The only possible failures are value-dependent: nil pointers along
// the path, and accessors that panic.
func (p *Program) Resolve(root reflect.Value) (reflect.Value, error) {
	if !root.IsValid() || root.Type() != p.root {
		return reflect.Value{}, fmt.Errorf("accessor: program for %s applied to %v", p.root, rootType(root))
	}
	v := root
	for i := range p.steps {
		st := &p.steps[i]
		switch st.op {
		case opField:
			v = v.Field(st.idx)
		case opDeref:
			if v.IsNil() {
				return reflect.Value{}, st.err
			}
			v = v.Elem()
		case opMethod:
			var err error
			switch {
			case st.fn.IsValid():
				v, err = callMethod(st.fn, v)
			case v.IsNil(): // interface method: nil receiver
				return reflect.Value{}, st.err
			default:
				v, err = callMethod(v.Method(st.idx))
			}
			if err != nil {
				return reflect.Value{}, err
			}
		default: // opAddrMethod
			var err error
			if v, err = callMethod(st.fn, v.Addr()); err != nil {
				return reflect.Value{}, err
			}
		}
	}
	return v, nil
}

// callMethod invokes one accessor step: fn with the receiver, if any, as
// its argument. A panicking accessor (typically a promoted method
// reached through a nil embedded pointer) becomes a resolution error,
// mirroring filter.callAccessor: a data-dependent panic must never crash
// a filtering host.
func callMethod(fn reflect.Value, recv ...reflect.Value) (rv reflect.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			rv, err = reflect.Value{}, panicked(r)
		}
	}()
	return fn.Call(recv)[0], nil
}

// rootType renders a value's type for the mismatch error (invalid
// values have none).
func rootType(v reflect.Value) any {
	if !v.IsValid() {
		return "invalid value"
	}
	return v.Type()
}

// ConstantAt is Constant for the event ptr points at (a *T for the
// program's root T), read in place, with T's value semantics: the same
// constant as Constant of a copy of *ptr, with no copy. A direct getter
// reads through the interface's data word, which for ptr is the address
// of a T, as it is for an interface holding a T; the steps run on *ptr,
// whose addressability they do not use (Compile decided them for a T
// that is not addressable).
func (p *Program) ConstantAt(ptr any) (filter.Constant, error) {
	if p.direct != nil {
		return p.direct(ptr)
	}
	v, err := p.Resolve(reflect.ValueOf(ptr).Elem())
	if err != nil {
		return filter.Constant{}, err
	}
	c, err := filter.ValueOf(v)
	if err != nil {
		return filter.Constant{}, resultErr(p.path, err)
	}
	return c, nil
}

// Constant resolves the path against event and normalizes the result
// to a filter constant — the compiled equivalent of filter.ResolvePath
// followed by filter.ValueOf. A program with a direct getter calls the
// accessor on the event's interface value (no reflect Call, no
// allocation); every other program replays its steps through Resolve.
// The two give the same constant and fail on the same events: a
// panicking accessor is the same resolution error either way.
func (p *Program) Constant(event any) (filter.Constant, error) {
	if p.direct != nil && reflect.TypeOf(event) == p.root {
		return p.direct(event)
	}
	v, err := p.Resolve(reflect.ValueOf(event))
	if err != nil {
		return filter.Constant{}, err
	}
	c, err := filter.ValueOf(v)
	if err != nil {
		return filter.Constant{}, resultErr(p.path, err)
	}
	return c, nil
}
