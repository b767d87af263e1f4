package filter

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"govents/internal/rec"
)

// A marshaled filter is the tree written depth first, in the
// one-encoding-only idiom of the other wire records (package rec):
//
//	node      1 byte   ExprKind, then by kind
//	  leaf    1 byte CmpOp, the left operand, the right operand
//	  and/or  uvarint count (at least 1), then that many nodes
//	  not     one node
//	operand   1 byte   0 for a path, else the constant's ConstKind
//	  path    uvarint count (at least 1), then that many length-prefixed,
//	          non-empty segments
//	  int     zigzag varint
//	  float   uvarint of the IEEE 754 bits, byte-reversed (round values
//	          are short)
//	  string  uvarint length + bytes
//	  bool    1 byte, 0 or 1
//
// An operand travels as a path when it has one and as its constant
// otherwise, and of a constant only the field its kind names. Equal trees
// have equal bytes and every tree has one encoding; Unmarshal refuses any
// other, anything nested deeper than maxDepth or longer than
// maxFilterBytes, and trailing bytes.
const (
	maxDepth       = 64
	maxFilterBytes = 1 << 16
)

// Marshal serializes an expression for migration to a filtering host —
// the mobility that motivates representing filters as trees rather than
// opaque closures (paper §3.3.3: "the migration of such code to foreign
// hosts" and "the factoring out of redundancies between filters of
// different subscribers gathered on individual hosts").
func Marshal(e *Expr) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("filter: marshal: %w", err)
	}
	b := appendExpr(make([]byte, 0, 64), e)
	if len(b) > maxFilterBytes {
		return nil, fmt.Errorf("filter: marshal: %w: %d bytes exceed %d", ErrInvalid, len(b), maxFilterBytes)
	}
	return b, nil
}

// MarshalCanonical serializes Normalize(e): semantically identical
// filters — regardless of the order subscribers wrote their And/Or
// terms in — produce byte-identical encodings. Advertised filters use
// this form so that filtering hosts can deduplicate equal filters of
// different subscribers by comparing wire bytes alone (the routing
// plane's plan keys), without parsing.
func MarshalCanonical(e *Expr) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("filter: marshal: %w", err)
	}
	return Marshal(Normalize(e))
}

// appendExpr appends a validated expression's record.
func appendExpr(b []byte, e *Expr) []byte {
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindLeaf:
		b = append(b, byte(e.Cond.Op))
		b = appendOperand(b, e.Cond.LHS)
		b = appendOperand(b, e.Cond.RHS)
	case KindAnd, KindOr:
		b = binary.AppendUvarint(b, uint64(len(e.Children)))
		fallthrough
	case KindNot:
		for _, c := range e.Children {
			b = appendExpr(b, c)
		}
	}
	return b
}

func appendOperand(b []byte, o Operand) []byte {
	if len(o.Path) > 0 {
		b = binary.AppendUvarint(append(b, 0), uint64(len(o.Path)))
		for _, seg := range o.Path {
			b = rec.AppendLenString(b, seg)
		}
		return b
	}
	b = append(b, byte(o.Const.Kind))
	switch o.Const.Kind {
	case ConstInt:
		b = binary.AppendVarint(b, o.Const.I)
	case ConstFloat:
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(o.Const.F)))
	case ConstString:
		b = rec.AppendLenString(b, o.Const.S)
	case ConstBool:
		b = append(b, 0)
		if o.Const.B {
			b[len(b)-1] = 1
		}
	}
	return b
}

// Unmarshal reconstructs an expression received from the wire. What it
// returns is valid (Validate), and marshals back to data.
func Unmarshal(data []byte) (*Expr, error) {
	if len(data) > maxFilterBytes {
		return nil, fmt.Errorf("filter: unmarshal: %d bytes exceed %d", len(data), maxFilterBytes)
	}
	r := rec.Reader{Buf: data}
	e := readExpr(&r, maxDepth)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("filter: unmarshal: %w", err)
	}
	return e, nil
}

func readExpr(r *rec.Reader, depth int) *Expr {
	if depth == 0 {
		r.Fail("nested deeper than %d", maxDepth)
		return nil
	}
	e := &Expr{Kind: ExprKind(r.U8())}
	terms := 1
	switch e.Kind {
	case KindConstTrue, KindConstFalse:
		return e
	case KindLeaf:
		e.Cond = &Cond{Op: CmpOp(r.U8())}
		if e.Cond.Op < OpEq || e.Cond.Op > OpHasSuffix {
			r.Fail("operator %d", e.Cond.Op)
		}
		e.Cond.LHS = readOperand(r)
		e.Cond.RHS = readOperand(r)
		return e
	case KindAnd, KindOr:
		terms = r.Count("terms", 1, 1)
	case KindNot:
	default:
		r.Fail("node kind %d at offset %d", e.Kind, r.Off)
		return e
	}
	// The claimed count is not trusted with more than a small allocation.
	e.Children = make([]*Expr, 0, min(terms, 8))
	for ; terms > 0 && r.Err == nil; terms-- {
		e.Children = append(e.Children, readExpr(r, depth-1))
	}
	return e
}

func readOperand(r *rec.Reader) (o Operand) {
	switch o.Const.Kind = ConstKind(r.U8()); o.Const.Kind {
	case 0:
		n := r.Count("path segments", 1, 2)
		o.Path = make([]string, 0, min(n, 8))
		for ; n > 0 && r.Err == nil; n-- {
			o.Path = append(o.Path, r.Str("path segment"))
		}
	case ConstInt:
		o.Const.I = r.Varint()
	case ConstFloat:
		o.Const.F = math.Float64frombits(bits.ReverseBytes64(r.Uvarint()))
	case ConstString:
		o.Const.S = string(r.Span("string", 0, maxFilterBytes))
	case ConstBool:
		b := r.U8()
		if b > 1 {
			r.Fail("bool byte %d", b)
		}
		o.Const.B = b == 1
	default:
		r.Fail("operand tag %d at offset %d", o.Const.Kind, r.Off)
	}
	return o
}
