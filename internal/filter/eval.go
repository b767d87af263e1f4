package filter

import (
	"fmt"
	"reflect"
	"strings"
)

// Evaluate applies the filter to an obvent (any struct or pointer to
// struct). It returns the boolean outcome; an evaluation error (missing
// accessor, type mismatch) makes the filter reject the obvent and is
// reported for diagnostics — a malformed remote filter must never crash
// a filtering host.
//
// Evaluate resolves each path occurrence independently through
// reflection; it is the semantic oracle. Hot paths (the compound
// matcher, package matching) instead resolve each unique path once per
// event through a compiled accessor program (package accessor).
func Evaluate(e *Expr, obj any) (bool, error) {
	ev := evaluator{obj: reflect.ValueOf(obj)}
	return ev.eval(e)
}

// evaluator carries the reflected obvent through one evaluation.
type evaluator struct {
	obj reflect.Value
}

// ValueOf, Compare and ResolvePath are exported so that package
// matching can factor conditions across subscriptions while reusing the
// exact evaluation semantics of this package.

func (ev *evaluator) eval(e *Expr) (bool, error) {
	switch e.Kind {
	case KindConstTrue:
		return true, nil
	case KindConstFalse:
		return false, nil
	case KindLeaf:
		return ev.evalCond(e.Cond)
	case KindAnd:
		for _, c := range e.Children {
			ok, err := ev.eval(c)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case KindOr:
		for _, c := range e.Children {
			ok, err := ev.eval(c)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case KindNot:
		ok, err := ev.eval(e.Children[0])
		if err != nil {
			return false, err
		}
		return !ok, nil
	default:
		return false, fmt.Errorf("filter: invalid node kind %d", e.Kind)
	}
}

func (ev *evaluator) evalCond(c *Cond) (bool, error) {
	lhs, err := ev.resolve(c.LHS)
	if err != nil {
		return false, err
	}
	rhs, err := ev.resolve(c.RHS)
	if err != nil {
		return false, err
	}
	return Compare(c.Op, lhs, rhs)
}

// resolve produces the concrete value of an operand.
func (ev *evaluator) resolve(o Operand) (Constant, error) {
	if len(o.Path) == 0 {
		return o.Const, nil
	}
	rv, err := ResolvePath(ev.obj, o.Path)
	if err != nil {
		return Constant{}, err
	}
	v, err := ValueOf(rv)
	if err != nil {
		return Constant{}, fmt.Errorf("filter: path %s: %w", strings.Join(o.Path, "."), err)
	}
	return v, nil
}

// ResolvePath walks an accessor path on a reflected object: each segment
// names an exported niladic single-result method (tried on both the
// value and its address) or an exported field. This realizes the paper's
// invocation-tree semantics — "the only method invocations allowed in a
// filter are (nested) invocations on its variables" (§3.3.4) — while
// preserving encapsulation (LP2): accessors are tried before raw fields.
func ResolvePath(v reflect.Value, path []string) (reflect.Value, error) {
	cur := v
	for _, seg := range path {
		next, err := resolveSegment(cur, seg)
		if err != nil {
			return reflect.Value{}, err
		}
		cur = next
	}
	return cur, nil
}

func resolveSegment(v reflect.Value, seg string) (reflect.Value, error) {
	if !v.IsValid() {
		return reflect.Value{}, fmt.Errorf("filter: segment %q on invalid value", seg)
	}
	if v.Kind() == reflect.Interface && v.IsNil() {
		// MethodByName on a nil interface value panics inside reflect;
		// like every other data-dependent resolution failure this must
		// reject the obvent, not crash the filtering host.
		return reflect.Value{}, fmt.Errorf("filter: segment %q on nil interface", seg)
	}
	// Accessor method, with a single name lookup: when the value is
	// addressable (and neither a pointer nor an interface — a pointer's
	// method set is already complete and a pointer-to-interface type has
	// none) the lookup goes through its pointer type, whose method set
	// contains both value- and pointer-receiver accessors; otherwise
	// through the value's own.
	if v.Kind() != reflect.Pointer && v.Kind() != reflect.Interface && v.CanAddr() {
		if m := v.Addr().MethodByName(seg); m.IsValid() {
			return callAccessor(m, seg)
		}
	} else if m := v.MethodByName(seg); m.IsValid() {
		return callAccessor(m, seg)
	}
	// Dereference pointers for field access / value-method retry. Only a
	// multi-level pointer can gain a method here: one level's full method
	// set was already probed above.
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return reflect.Value{}, fmt.Errorf("filter: segment %q on nil pointer", seg)
		}
		v = v.Elem()
		if v.Kind() == reflect.Interface && v.IsNil() {
			// Same reflect panic hazard as the entry guard, reachable
			// through a pointer-to-interface field.
			return reflect.Value{}, fmt.Errorf("filter: segment %q on nil interface", seg)
		}
		if m := v.MethodByName(seg); m.IsValid() {
			return callAccessor(m, seg)
		}
	}
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, fmt.Errorf("filter: segment %q on non-struct %s", seg, v.Kind())
	}
	f, ok := v.Type().FieldByName(seg)
	if !ok {
		return reflect.Value{}, fmt.Errorf("filter: no accessor or field %q on %s", seg, v.Type())
	}
	// FieldByIndexErr, not FieldByName: a promoted field reached through
	// a nil embedded pointer must reject the obvent like any other
	// resolution failure, not panic the filtering host.
	fv, err := v.FieldByIndexErr(f.Index)
	if err != nil {
		return reflect.Value{}, fmt.Errorf("filter: segment %q: %w", seg, err)
	}
	return fv, nil
}

func callAccessor(m reflect.Value, seg string) (rv reflect.Value, err error) {
	mt := m.Type()
	if mt.NumIn() != 0 || mt.NumOut() != 1 {
		return reflect.Value{}, fmt.Errorf("filter: accessor %q must be niladic with one result", seg)
	}
	// An accessor that panics (typically a promoted method reached
	// through a nil embedded pointer) rejects the obvent like any other
	// resolution failure: a data-dependent panic must never crash a
	// filtering host.
	defer func() {
		if r := recover(); r != nil {
			rv, err = reflect.Value{}, fmt.Errorf("filter: accessor %q panicked: %v", seg, r)
		}
	}()
	return m.Call(nil)[0], nil
}

// ValueOf normalizes a reflected result to a primitive value, enforcing
// the paper's restriction of filter values to primitives and strings.
func ValueOf(rv reflect.Value) (Constant, error) {
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return Constant{}, fmt.Errorf("nil result")
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return Constant{Kind: ConstInt, I: rv.Int()}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return UintConstant(rv.Uint())
	case reflect.Float32, reflect.Float64:
		return Constant{Kind: ConstFloat, F: rv.Float()}, nil
	case reflect.String:
		return Constant{Kind: ConstString, S: rv.String()}, nil
	case reflect.Bool:
		return Constant{Kind: ConstBool, B: rv.Bool()}, nil
	default:
		return Constant{}, fmt.Errorf("non-primitive result kind %s", rv.Kind())
	}
}

// UintConstant is ValueOf for an unsigned result: filter integers are
// int64, and a value above 1<<62 is refused rather than wrapped.
func UintConstant[U uint | uint8 | uint16 | uint32 | uint64](u U) (Constant, error) {
	if uint64(u) > 1<<62 {
		return Constant{}, fmt.Errorf("unsigned value %d overflows filter integer", u)
	}
	return Constant{Kind: ConstInt, I: int64(u)}, nil
}

// Compare applies op to two primitive values with numeric promotion
// (int vs float compare as floats).
func Compare(op CmpOp, a, b Constant) (bool, error) {
	switch op {
	case OpContains, OpHasPrefix, OpHasSuffix:
		if a.Kind != ConstString || b.Kind != ConstString {
			return false, fmt.Errorf("filter: %s requires string operands", op)
		}
		switch op {
		case OpContains:
			return strings.Contains(a.S, b.S), nil
		case OpHasPrefix:
			return strings.HasPrefix(a.S, b.S), nil
		default:
			return strings.HasSuffix(a.S, b.S), nil
		}
	}

	switch {
	case a.Kind == ConstString && b.Kind == ConstString:
		return compareOrdered(op, strings.Compare(a.S, b.S))
	case a.Kind == ConstBool && b.Kind == ConstBool:
		switch op {
		case OpEq:
			return a.B == b.B, nil
		case OpNe:
			return a.B != b.B, nil
		default:
			return false, fmt.Errorf("filter: %s not defined on booleans", op)
		}
	case isNumeric(a.Kind) && isNumeric(b.Kind):
		if a.Kind == ConstInt && b.Kind == ConstInt {
			switch {
			case a.I < b.I:
				return compareOrdered(op, -1)
			case a.I > b.I:
				return compareOrdered(op, 1)
			default:
				return compareOrdered(op, 0)
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return compareOrdered(op, -1)
		case af > bf:
			return compareOrdered(op, 1)
		default:
			return compareOrdered(op, 0)
		}
	default:
		return false, fmt.Errorf("filter: type mismatch: %v vs %v", a.Kind, b.Kind)
	}
}

func isNumeric(k ConstKind) bool { return k == ConstInt || k == ConstFloat }

// AsFloat returns the numeric value as a float64 (integers are widened).
func (v Constant) AsFloat() float64 {
	if v.Kind == ConstInt {
		return float64(v.I)
	}
	return v.F
}

// compareOrdered maps a three-way comparison to the operator outcome.
func compareOrdered(op CmpOp, cmp int) (bool, error) {
	switch op {
	case OpEq:
		return cmp == 0, nil
	case OpNe:
		return cmp != 0, nil
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("filter: operator %s not applicable", op)
	}
}
