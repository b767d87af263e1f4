package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"govents/internal/filter"
)

// An Extractor is one (class, plan) lazy partial decoder: it resolves a
// fixed set of structural accessor chains (field-index paths as
// reported by accessor.Program.FieldSteps) directly from a class's wire
// encoding, materializing nothing. A compound plan references only a
// handful of paths; walking the encoded bytes field by field — skipping
// everything the plan does not mention and stopping after the last
// referenced field — costs a few varint reads where a full decode costs
// a whole event's worth of allocation.
//
// Extractors are immutable and safe for concurrent use; the per-call
// state lives entirely in the caller's scratch slices.
type Extractor struct {
	t    reflect.Type
	able []bool
	all  bool
	run  extFn
}

// extFn walks one encoded subvalue, filling resolved slots.
type extFn func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error)

// islot is one chain still to be resolved below the current node.
type islot struct {
	idx   int
	chain []int
}

// CompileExtract builds the extractor for class type t over the given
// chains (one per plan path; -1 entries are pointer dereferences). A
// nil chain, or one whose leaf is not a filter primitive, is marked not
// extractable and simply never resolves — Able reports which chains the
// extractor covers, AllAble whether lazy evaluation can replace a full
// decode for this plan. CompileExtract fails only when t itself is not
// wire-encodable (callers gate on a compiled class program first).
func CompileExtract(t reflect.Type, chains [][]int) (*Extractor, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	ex := &Extractor{t: t, able: make([]bool, len(chains)), all: true}
	var slots []islot
	for i, c := range chains {
		if c != nil && chainExtractable(t, c) {
			ex.able[i] = true
			slots = append(slots, islot{idx: i, chain: c})
		} else {
			ex.all = false
		}
	}
	b := &builder{building: make(map[reflect.Type]*codecFns)}
	run, err := buildWalk(b, t, slots, false)
	if err != nil {
		return nil, err
	}
	ex.run = run
	return ex, nil
}

// Type returns the class type the extractor reads.
func (e *Extractor) Type() reflect.Type { return e.t }

// Able reports whether chain i resolves from wire bytes.
func (e *Extractor) Able(i int) bool { return e.able[i] }

// AllAble reports whether every chain resolves from wire bytes — the
// precondition for evaluating a plan without materializing the event.
func (e *Extractor) AllAble() bool { return e.all }

// Extract resolves the extractable chains from one encoded payload into
// vals, setting ok per slot. Slots left false are unresolved — either
// not extractable, or unresolved on this value (nil pointer along the
// path, unsigned overflow) exactly where the materialized path's
// resolution would have failed. A non-nil error means the payload is
// malformed; the caller falls back to a full decode, which fails the
// same way, so corrupt input is observed identically on both paths.
func (e *Extractor) Extract(data []byte, vals []filter.Constant, ok []bool) error {
	for i := range ok {
		ok[i] = false
	}
	_, err := e.run(data, 0, vals, ok)
	return err
}

// chainExtractable reports whether a chain lands on a filter-primitive
// leaf through struct fields and pointer derefs only. A marshaled type
// is opaque on the wire (its bytes are its method's output), so a chain
// into or onto one is not extractable.
func chainExtractable(t reflect.Type, chain []int) bool {
	for _, s := range chain {
		if _, marshaled := marshalerOf(t); marshaled {
			return false
		}
		if s < 0 {
			if t.Kind() != reflect.Pointer {
				return false
			}
			t = t.Elem()
			continue
		}
		if t.Kind() != reflect.Struct || s >= t.NumField() {
			return false
		}
		f := t.Field(s)
		if !travels(f) {
			return false
		}
		t = f.Type
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if _, marshaled := marshalerOf(t); marshaled {
		return false
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return true
	default:
		return false
	}
}

// buildWalk compiles the walk over t resolving slots. needTail is true
// when the caller must know the position after t's encoding (there is
// something interesting, or something to validate, later) — when false,
// the walk stops at the last resolved slot instead of skipping the rest
// of the payload.
func buildWalk(b *builder, t reflect.Type, slots []islot, needTail bool) (extFn, error) {
	if len(slots) == 0 {
		if !needTail {
			return func(_ []byte, pos int, _ []filter.Constant, _ []bool) (int, error) {
				return pos, nil
			}, nil
		}
		_, _, skip, err := b.build(t)
		if err != nil {
			return nil, err
		}
		return func(data []byte, pos int, _ []filter.Constant, _ []bool) (int, error) {
			return skip(data, pos, 0)
		}, nil
	}

	switch t.Kind() {
	case reflect.Pointer:
		// Consume the leading deref (an empty chain here is a leaf
		// pointer: ValueOf dereferences it, so the walk does too).
		sub := make([]islot, len(slots))
		for i, s := range slots {
			if len(s.chain) > 0 && s.chain[0] == -1 {
				sub[i] = islot{idx: s.idx, chain: s.chain[1:]}
			} else {
				sub[i] = s
			}
		}
		inner, err := buildWalk(b, t.Elem(), sub, needTail)
		if err != nil {
			return nil, err
		}
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			if pos >= len(data) {
				return 0, errShort
			}
			switch data[pos] {
			case 0:
				// Nil pointer: every slot below stays unresolved, like
				// the materialized path's nil-deref failure.
				return pos + 1, nil
			case 1:
				return inner(data, pos+1, vals, ok)
			default:
				return 0, fmt.Errorf("wire: invalid presence byte %d", data[pos])
			}
		}, nil

	case reflect.Struct:
		byField := make(map[int][]islot)
		last := -1
		for _, s := range slots {
			if len(s.chain) == 0 {
				return nil, fmt.Errorf("wire: chain ends on struct %s", t)
			}
			f := s.chain[0]
			byField[f] = append(byField[f], islot{idx: s.idx, chain: s.chain[1:]})
			if f > last {
				last = f
			}
		}
		var acts []extFn
		for i := 0; i < t.NumField(); i++ {
			if i > last && !needTail {
				break
			}
			f := t.Field(i)
			if !travels(f) {
				continue
			}
			fn, err := buildWalk(b, f.Type, byField[i], needTail || i < last)
			if err != nil {
				return nil, err
			}
			acts = append(acts, fn)
		}
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			var err error
			for _, fn := range acts {
				if pos, err = fn(data, pos, vals, ok); err != nil {
					return 0, err
				}
			}
			return pos, nil
		}, nil
	}

	// Primitive leaf: every slot's chain must be exhausted.
	for _, s := range slots {
		if len(s.chain) != 0 {
			return nil, fmt.Errorf("wire: chain extends past %s", t)
		}
	}
	return buildCapture(t, slots)
}

// buildCapture compiles the leaf read for a primitive, resolving every
// slot that lands on it. The value normalization mirrors filter.ValueOf
// exactly, including its unsigned-overflow rejection.
func buildCapture(t reflect.Type, slots []islot) (extFn, error) {
	resolve := func(vals []filter.Constant, ok []bool, c filter.Constant) {
		for _, s := range slots {
			vals[s.idx] = c
			ok[s.idx] = true
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			if pos >= len(data) {
				return 0, errShort
			}
			switch data[pos] {
			case 0:
				resolve(vals, ok, filter.Constant{Kind: filter.ConstBool})
			case 1:
				resolve(vals, ok, filter.Constant{Kind: filter.ConstBool, B: true})
			default:
				return 0, fmt.Errorf("wire: invalid bool byte %d", data[pos])
			}
			return pos + 1, nil
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := t.Bits()
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			u, pos, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			i := unzigzag(u)
			if bits < 64 && (i>>(bits-1) != 0 && i>>(bits-1) != -1) {
				return 0, fmt.Errorf("wire: value %d overflows %s", i, t)
			}
			resolve(vals, ok, filter.Constant{Kind: filter.ConstInt, I: i})
			return pos, nil
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		bits := t.Bits()
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			u, pos, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			if bits < 64 && u>>bits != 0 {
				return 0, fmt.Errorf("wire: value %d overflows %s", u, t)
			}
			if u <= 1<<62 {
				resolve(vals, ok, filter.Constant{Kind: filter.ConstInt, I: int64(u)})
			}
			// Above 1<<62 the slot stays unresolved, exactly where
			// filter.ValueOf rejects the value on the materialized path.
			return pos, nil
		}, nil
	case reflect.Float32:
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			if pos+4 > len(data) {
				return 0, errShort
			}
			f := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos:])))
			resolve(vals, ok, filter.Constant{Kind: filter.ConstFloat, F: f})
			return pos + 4, nil
		}, nil
	case reflect.Float64:
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			if pos+8 > len(data) {
				return 0, errShort
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			resolve(vals, ok, filter.Constant{Kind: filter.ConstFloat, F: f})
			return pos + 8, nil
		}, nil
	case reflect.String:
		return func(data []byte, pos int, vals []filter.Constant, ok []bool) (int, error) {
			n, pos, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			if n > uint64(len(data)-pos) {
				return 0, fmt.Errorf("wire: string length %d exceeds remaining input", n)
			}
			resolve(vals, ok, filter.Constant{Kind: filter.ConstString, S: string(data[pos : pos+int(n)])})
			return pos + int(n), nil
		}, nil
	default:
		return nil, fmt.Errorf("wire: unextractable leaf kind %s", t.Kind())
	}
}
