// Package filter implements content-based subscription filters as
// first-class, serializable expression trees — the paper's deferred code
// evaluation mechanism (LM4, §3.3.3–§3.3.4, §4.4.3).
//
// A filter produced by the paper's psc precompiler is represented by two
// tree-like constructs: an *invocation tree* (nested method invocations /
// attribute accesses on the filtered obvent, with leaves denoting
// conditions on the obtained values) and an *evaluation tree* (logical
// combinations of those leaves). This package realizes both in a single
// Expr tree: Cond nodes carry access Paths (the invocation tree), and
// And/Or/Not nodes form the evaluation tree above them.
//
// Expr values obey the paper's mobility restrictions by construction
// (§3.3.4): the only "invocations" are accessor-method calls and field
// reads on the filtered obvent, and the only other operands are constants
// of primitive type. An Expr can therefore be marshaled, shipped to a
// filtering host, factored against other subscribers' filters (package
// matching), and evaluated there — whereas an arbitrary Go closure (a
// LocalFilter) cannot leave the subscriber.
//
// Accessor methods named in a filter must be pure: a filtering host may
// resolve each accessor path once per event against a single shared
// clone and reuse the value across many subscriptions' conditions (the
// compound matcher does exactly that), so an accessor with observable
// side effects — advancing a cursor, mutating reachable state — yields
// unspecified matching results.
//
// Filters are built with a small DSL:
//
//	f := filter.And(
//		filter.Path("Price").Lt(filter.Float(100)),
//		filter.Path("Company").Contains(filter.Str("Telco")),
//	)
//
// which corresponds to the paper's running example
// "q.getPrice() < 100 && q.getCompany().indexOf("Telco") != -1".
package filter

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ErrInvalid is the sentinel wrapped by every Validate failure: a
// structurally malformed expression (bad arity, missing condition,
// invalid constant or operator). Callers at any layer can detect it
// with errors.Is without parsing messages.
var ErrInvalid = errors.New("filter: invalid expression")

// ExprKind discriminates Expr nodes.
type ExprKind int

// Expr node kinds.
const (
	KindConstTrue ExprKind = iota + 1
	KindConstFalse
	KindLeaf
	KindAnd
	KindOr
	KindNot
)

// Expr is a node of the evaluation tree. Expr trees are immutable after
// construction and safe to share.
type Expr struct {
	Kind     ExprKind
	Children []*Expr // And/Or (≥1), Not (exactly 1)
	Cond     *Cond   // Leaf only
}

// CmpOp is a leaf comparison operator.
type CmpOp int

// Comparison operators. String operators apply to string-valued
// operands only.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains  // strings.Contains(lhs, rhs)
	OpHasPrefix // strings.HasPrefix(lhs, rhs)
	OpHasSuffix // strings.HasSuffix(lhs, rhs)
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "contains"
	case OpHasPrefix:
		return "hasPrefix"
	case OpHasSuffix:
		return "hasSuffix"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Cond is a leaf condition comparing two operands: the invocation-tree
// leaf of the paper's §4.4.3.
type Cond struct {
	Op  CmpOp
	LHS Operand
	RHS Operand
}

// Operand is either an access path into the filtered obvent or a
// primitive constant — the only operand forms the paper's mobility
// restrictions admit (§3.3.4).
type Operand struct {
	// Path, when non-empty, is the dotted accessor path evaluated
	// against the obvent (invocation tree branch).
	Path []string
	// Const, when Path is empty, is the constant operand.
	Const Constant
}

// ConstKind discriminates constants.
type ConstKind int

// Constant kinds, mirroring the primitive types the paper's filter
// variable restrictions allow.
const (
	ConstInt ConstKind = iota + 1
	ConstFloat
	ConstString
	ConstBool
)

// Constant is a primitive constant operand.
type Constant struct {
	Kind ConstKind
	I    int64
	F    float64
	S    string
	B    bool
}

// --- Builder DSL ---

// PathExpr is an access path under construction; terminate it with a
// comparison to obtain an Expr.
type PathExpr struct {
	path []string
}

// Path starts an access path on the filtered obvent. Segments are dot
// separated; each segment names an exported niladic accessor method or
// an exported field (tried in that order), e.g. "Market.Price".
func Path(p string) PathExpr {
	return PathExpr{path: strings.Split(p, ".")}
}

func (p PathExpr) operand() Operand { return Operand{Path: p.path} }

// Cmp builds a comparison of the path against another operand.
func (p PathExpr) Cmp(op CmpOp, rhs Operandable) *Expr {
	return &Expr{Kind: KindLeaf, Cond: &Cond{Op: op, LHS: p.operand(), RHS: rhs.operand()}}
}

// Eq builds path == rhs.
func (p PathExpr) Eq(rhs Operandable) *Expr { return p.Cmp(OpEq, rhs) }

// Ne builds path != rhs.
func (p PathExpr) Ne(rhs Operandable) *Expr { return p.Cmp(OpNe, rhs) }

// Lt builds path < rhs.
func (p PathExpr) Lt(rhs Operandable) *Expr { return p.Cmp(OpLt, rhs) }

// Le builds path <= rhs.
func (p PathExpr) Le(rhs Operandable) *Expr { return p.Cmp(OpLe, rhs) }

// Gt builds path > rhs.
func (p PathExpr) Gt(rhs Operandable) *Expr { return p.Cmp(OpGt, rhs) }

// Ge builds path >= rhs.
func (p PathExpr) Ge(rhs Operandable) *Expr { return p.Cmp(OpGe, rhs) }

// Contains builds strings.Contains(path, rhs).
func (p PathExpr) Contains(rhs Operandable) *Expr { return p.Cmp(OpContains, rhs) }

// HasPrefix builds strings.HasPrefix(path, rhs).
func (p PathExpr) HasPrefix(rhs Operandable) *Expr { return p.Cmp(OpHasPrefix, rhs) }

// HasSuffix builds strings.HasSuffix(path, rhs).
func (p PathExpr) HasSuffix(rhs Operandable) *Expr { return p.Cmp(OpHasSuffix, rhs) }

// Operandable is anything usable as a comparison operand.
type Operandable interface {
	operand() Operand
}

// constant wraps a Constant as an Operandable.
type constant struct{ c Constant }

func (c constant) operand() Operand { return Operand{Const: c.c} }

// Int builds an integer constant operand.
func Int(v int64) Operandable { return constant{Constant{Kind: ConstInt, I: v}} }

// Float builds a float constant operand.
func Float(v float64) Operandable { return constant{Constant{Kind: ConstFloat, F: v}} }

// Str builds a string constant operand.
func Str(v string) Operandable { return constant{Constant{Kind: ConstString, S: v}} }

// Bool builds a boolean constant operand.
func Bool(v bool) Operandable { return constant{Constant{Kind: ConstBool, B: v}} }

// True is the filter accepting every obvent — the paper's
// "subscribe (T t) { return true; }".
func True() *Expr { return &Expr{Kind: KindConstTrue} }

// False is the filter rejecting every obvent.
func False() *Expr { return &Expr{Kind: KindConstFalse} }

// And combines sub-filters conjunctively.
func And(children ...*Expr) *Expr {
	return &Expr{Kind: KindAnd, Children: children}
}

// Or combines sub-filters disjunctively.
func Or(children ...*Expr) *Expr {
	return &Expr{Kind: KindOr, Children: children}
}

// Not negates a sub-filter.
func Not(child *Expr) *Expr {
	return &Expr{Kind: KindNot, Children: []*Expr{child}}
}

// --- Canonical form ---

// Canon returns the expression's canonical encoding (MarshalCanonical's
// bytes, as a string): the common-subexpression key when filters of
// different subscribers are factored into a compound filter (paper
// §2.3.2, §4.4.3). Two expressions with equal Canon are semantically
// identical: the order and repetition of And/Or terms do not matter. An
// expression that does not marshal has the Canon "invalid".
func (e *Expr) Canon() string {
	b, err := MarshalCanonical(e)
	if err != nil {
		return "invalid"
	}
	return string(b)
}

// Normalize returns an expression semantically equivalent to e in
// canonical shape: And/Or child lists are sorted by canonical form with
// exact duplicates dropped. Two filters that differ only in the order
// (or repetition) of their conjuncts/disjuncts normalize to structurally
// identical trees, which therefore marshal to identical bytes
// (MarshalCanonical) — the property the routing plane's plan keys rely
// on. The input is never mutated: reordered nodes are rebuilt, and
// subtrees that are already canonical are shared.
//
// Reordering can change which non-delivering outcome (false vs
// evaluation error) a formula reports, but never whether it delivers:
// true requires every And child true / some Or child true with all
// earlier children false, and those child outcomes are order-independent.
func Normalize(e *Expr) *Expr {
	switch e.Kind {
	case KindAnd, KindOr:
		type keyed struct {
			key   string
			child *Expr
		}
		ks := make([]keyed, 0, len(e.Children))
		for _, c := range e.Children {
			// Key on the normalized child so that terms that differ only
			// pre-normalization (e.g. or(a,a) vs or(a)) still deduplicate.
			n := Normalize(c)
			ks = append(ks, keyed{key: string(appendExpr(nil, n)), child: n})
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		children := make([]*Expr, 0, len(ks))
		for i, k := range ks {
			if i > 0 && k.key == ks[i-1].key {
				continue // exact duplicate term
			}
			children = append(children, k.child)
		}
		return &Expr{Kind: e.Kind, Children: children}
	case KindNot:
		return &Expr{Kind: KindNot, Children: []*Expr{Normalize(e.Children[0])}}
	default:
		// Leaves and constants are already canonical and immutable.
		return e
	}
}

// Canon returns the canonical key of a leaf condition: its encoding.
func (c *Cond) Canon() string {
	return string(appendOperand(appendOperand([]byte{byte(c.Op)}, c.LHS), c.RHS))
}

// String renders the expression in a human-readable infix form.
func (e *Expr) String() string {
	switch e.Kind {
	case KindConstTrue:
		return "true"
	case KindConstFalse:
		return "false"
	case KindLeaf:
		return fmt.Sprintf("%s %s %s", e.Cond.LHS, e.Cond.Op, e.Cond.RHS)
	case KindAnd, KindOr:
		sep := " && "
		if e.Kind == KindOr {
			sep = " || "
		}
		parts := make([]string, len(e.Children))
		for i, c := range e.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	case KindNot:
		return "!" + e.Children[0].String()
	default:
		return fmt.Sprintf("invalid(%d)", e.Kind)
	}
}

// String renders an operand.
func (o Operand) String() string {
	if len(o.Path) > 0 {
		return strings.Join(o.Path, ".")
	}
	switch o.Const.Kind {
	case ConstInt:
		return strconv.FormatInt(o.Const.I, 10)
	case ConstFloat:
		return strconv.FormatFloat(o.Const.F, 'g', -1, 64)
	case ConstString:
		return strconv.Quote(o.Const.S)
	case ConstBool:
		return strconv.FormatBool(o.Const.B)
	default:
		return "invalid"
	}
}

// Validate checks structural well-formedness: children arities, leaf
// conditions present, operands being either paths or valid constants,
// and nesting no deeper than a marshaled filter may be (maxDepth).
func (e *Expr) Validate() error { return e.validate(maxDepth) }

func (e *Expr) validate(depth int) error {
	if e == nil {
		return fmt.Errorf("%w: nil expression", ErrInvalid)
	}
	if depth == 0 {
		return fmt.Errorf("%w: nested deeper than %d", ErrInvalid, maxDepth)
	}
	switch e.Kind {
	case KindConstTrue, KindConstFalse:
		return nil
	case KindLeaf:
		if e.Cond == nil {
			return fmt.Errorf("%w: leaf without condition", ErrInvalid)
		}
		for _, o := range []Operand{e.Cond.LHS, e.Cond.RHS} {
			if len(o.Path) == 0 {
				switch o.Const.Kind {
				case ConstInt, ConstFloat, ConstString, ConstBool:
				default:
					return fmt.Errorf("%w: invalid constant kind %d", ErrInvalid, o.Const.Kind)
				}
			}
			for _, seg := range o.Path {
				if seg == "" {
					return fmt.Errorf("%w: empty path segment", ErrInvalid)
				}
			}
		}
		if e.Cond.Op < OpEq || e.Cond.Op > OpHasSuffix {
			return fmt.Errorf("%w: invalid operator %d", ErrInvalid, e.Cond.Op)
		}
		return nil
	case KindAnd, KindOr:
		if len(e.Children) == 0 {
			return fmt.Errorf("%w: %v with no children", ErrInvalid, e.Kind)
		}
		for _, c := range e.Children {
			if err := c.validate(depth - 1); err != nil {
				return err
			}
		}
		return nil
	case KindNot:
		if len(e.Children) != 1 {
			return fmt.Errorf("%w: not with %d children", ErrInvalid, len(e.Children))
		}
		return e.Children[0].validate(depth - 1)
	default:
		return fmt.Errorf("%w: invalid node kind %d", ErrInvalid, e.Kind)
	}
}
