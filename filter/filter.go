// Package filter is the public surface of content-based subscription
// filters: first-class, serializable expression trees — the paper's
// deferred code evaluation (§3.3.3–§3.3.4). A filter built here can
// migrate to filtering hosts (the publisher, a broker) and be factored
// with other subscribers' filters; an arbitrary Go closure cannot.
//
// Every type is an alias of the engine-internal implementation, so
// filters flow between the public API and the substrate without
// conversion. Filters are built with a small DSL:
//
//	f := filter.And(
//		filter.Path("GetPrice").Lt(filter.Float(100)),
//		filter.Path("GetCompany").Contains(filter.Str("Telco")),
//	)
//
// the paper's "q.getPrice() < 100 && q.getCompany().indexOf("Telco")
// != -1". Paths name pure accessor methods or fields of the filtered
// obvent; the only other operands are primitive constants.
package filter

import internal "govents/internal/filter"

// Expr is a filter expression tree; immutable and safe to share.
type Expr = internal.Expr

// PathExpr is an accessor path being built into a condition.
type PathExpr = internal.PathExpr

// Operandable is anything usable as a comparison operand: a Path or a
// constant (Int, Float, Str, Bool).
type Operandable = internal.Operandable

// CmpOp is a leaf comparison operator.
type CmpOp = internal.CmpOp

// Comparison operators. String operators apply to string operands only.
const (
	OpEq        = internal.OpEq
	OpNe        = internal.OpNe
	OpLt        = internal.OpLt
	OpLe        = internal.OpLe
	OpGt        = internal.OpGt
	OpGe        = internal.OpGe
	OpContains  = internal.OpContains
	OpHasPrefix = internal.OpHasPrefix
	OpHasSuffix = internal.OpHasSuffix
)

// ErrInvalid is wrapped by every validation failure of a structurally
// malformed expression; govents.ErrBadFilter is the same sentinel.
var ErrInvalid = internal.ErrInvalid

// Path starts a condition on an accessor path: a dot-separated chain of
// pure accessor methods or exported fields ("GetPrice", "Inner.Name").
func Path(p string) PathExpr { return internal.Path(p) }

// Int builds an integer constant operand.
func Int(v int64) Operandable { return internal.Int(v) }

// Float builds a float constant operand.
func Float(v float64) Operandable { return internal.Float(v) }

// Str builds a string constant operand.
func Str(v string) Operandable { return internal.Str(v) }

// Bool builds a boolean constant operand.
func Bool(v bool) Operandable { return internal.Bool(v) }

// True is the always-true filter (subscribe to every instance).
func True() *Expr { return internal.True() }

// False is the always-false filter.
func False() *Expr { return internal.False() }

// And combines children conjunctively.
func And(children ...*Expr) *Expr { return internal.And(children...) }

// Or combines children disjunctively.
func Or(children ...*Expr) *Expr { return internal.Or(children...) }

// Not negates child.
func Not(child *Expr) *Expr { return internal.Not(child) }

// Evaluate applies a filter to a value (the subscriber-side reference
// semantics; filtering hosts use the factored compound matcher).
func Evaluate(e *Expr, obj any) (bool, error) { return internal.Evaluate(e, obj) }

// Normalize returns the canonical structural form of e: And/Or children
// sorted and deduplicated, so semantically identical filters compare
// equal.
func Normalize(e *Expr) *Expr { return internal.Normalize(e) }

// Marshal serializes an expression for migration to a filtering host, as
// a compact binary record (no gob): equal trees give equal bytes. It
// fails for an invalid expression, one nested deeper than 64 levels, or
// one whose record would exceed 64 KiB.
func Marshal(e *Expr) ([]byte, error) { return internal.Marshal(e) }

// MarshalCanonical serializes Normalize(e): identical filters produce
// byte-identical encodings regardless of how subscribers wrote them.
func MarshalCanonical(e *Expr) ([]byte, error) { return internal.MarshalCanonical(e) }

// Unmarshal reconstructs an expression from the bytes Marshal wrote, and
// from nothing else: every tree has one encoding, and any other input
// (a second spelling, trailing bytes, a record of an earlier, gob-framed
// build) is an error. What it returns is valid.
func Unmarshal(data []byte) (*Expr, error) { return internal.Unmarshal(data) }
