// Package wire implements the compact binary obvent encoding: per-class
// encoder/decoder programs compiled once, at first sight of a class, by
// walking its struct type the same way the codec's deep-copier compiler
// does (internal/codec/copier.go). Gob — the paper's "default
// serialization mechanism" stand-in — self-describes every payload: each
// encode re-transmits the type structure and each decode re-interprets
// it, costing ~190 allocations per event for a three-field struct. But
// an obvent class's layout never changes once registered, so everything
// structural about its encoding is a function of the type alone and can
// be decided at compile time; the payload then carries values only.
//
// # Format
//
// All values encode in field order with no tags, names, or type
// information (both sides compile the same program from the same type):
//
//   - bool: one byte, 0 or 1.
//   - signed integers (including named types like time.Duration):
//     zigzag-encoded unsigned varint.
//   - unsigned integers: unsigned varint.
//   - float32 / float64: IEEE 754 bits, little-endian, 4 / 8 bytes.
//   - complex64 / complex128: real then imaginary parts as floats.
//   - string: unsigned varint byte length, then the bytes.
//   - slice, map: unsigned varint 0 for nil, else element count + 1,
//     then the elements (key then value for maps). Nil-ness is
//     preserved exactly — unlike gob, a round trip is the identity.
//   - pointer: one presence byte (0 nil, 1 present), then the pointee.
//   - array: the elements, nothing else (length is part of the type).
//   - struct: the exported fields in declaration order. Unexported
//     fields do not travel (gob's rule; they are always zero in a
//     decoded value).
//
// # Compilation and rejection
//
// Compile is conservative, mirroring the copier compiler's rejection
// rules: a class containing interface, chan, func, unsafe.Pointer or
// uintptr fields, any custom gob/binary/text marshaler anywhere in its
// layout (the marshaler exists precisely because the layout is not the
// whole state), map keys that are not flat, or recursive pointer types
// is rejected at compile time and keeps gob as its payload encoding.
// Envelope.Enc names the encoding a payload carries and every node
// reads both, so rejection costs performance, never correctness.
//
// Decoding is defensive: every length and count read off the wire is
// validated against the remaining input before allocation, and a
// payload with trailing garbage is an error, so a corrupt or hostile
// payload cannot allocate unbounded memory or silently truncate.
package wire

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
)

// encFn appends v's encoding to dst.
type encFn func(dst []byte, v reflect.Value) []byte

// decFn decodes into v (settable) from data at pos, returning the next
// position.
type decFn func(data []byte, pos int, v reflect.Value) (int, error)

// skipFn advances past one encoded value without materializing it.
type skipFn func(data []byte, pos int) (int, error)

// Prog is one class's compiled codec program pair. Programs are
// immutable and safe for concurrent use.
type Prog struct {
	t   reflect.Type
	enc encFn
	dec decFn
}

// Type returns the class type the program encodes.
func (p *Prog) Type() reflect.Type { return p.t }

// Append appends the encoding of v (which must have the program's type)
// to dst and returns the extended buffer.
func (p *Prog) Append(dst []byte, v reflect.Value) []byte {
	return p.enc(dst, v)
}

// Decode decodes data into v, a settable zero value of the program's
// type. The whole input must be consumed: trailing bytes are an error
// (a truncated or mis-framed payload must not decode "successfully").
func (p *Prog) Decode(data []byte, v reflect.Value) error {
	pos, err := p.dec(data, 0, v)
	if err != nil {
		return err
	}
	if pos != len(data) {
		return fmt.Errorf("wire: %s: %d trailing bytes", p.t, len(data)-pos)
	}
	return nil
}

// Compile builds the codec program for class type t, or returns an
// error describing why the class must keep the gob fallback. Callers
// cache the outcome per type (a layout never changes).
func Compile(t reflect.Type) (*Prog, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	b := &builder{building: make(map[reflect.Type]bool)}
	enc, dec, _, err := b.build(t)
	if err != nil {
		return nil, err
	}
	return &Prog{t: t, enc: enc, dec: dec}, nil
}

// customMarshalIfaces are the interfaces that opt a type out of
// field-wise encoding under gob (and therefore out of the wire format:
// the custom marshaler exists because the exported layout is not the
// whole state).
var customMarshalIfaces = []reflect.Type{
	reflect.TypeOf((*gob.GobEncoder)(nil)).Elem(),
	reflect.TypeOf((*gob.GobDecoder)(nil)).Elem(),
	reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
}

// hasCustomMarshal reports whether t (or its pointer type) implements a
// custom marshaling interface.
func hasCustomMarshal(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	for _, it := range customMarshalIfaces {
		if t.Implements(it) || pt.Implements(it) {
			return true
		}
	}
	return false
}

// builder compiles one class, tracking in-progress types to detect
// recursion.
type builder struct {
	building map[reflect.Type]bool
}

// build compiles the encoder, decoder and skipper for t.
func (b *builder) build(t reflect.Type) (encFn, decFn, skipFn, error) {
	if hasCustomMarshal(t) {
		return nil, nil, nil, fmt.Errorf("wire: %s has a custom marshaler", t)
	}
	if b.building[t] {
		// Recursive pointer type: a compiled program would chase any
		// depth with no cycle check. Rejected once, at compile time,
		// like the copier compiler.
		return nil, nil, nil, fmt.Errorf("wire: %s is recursive", t)
	}
	b.building[t] = true
	enc, dec, skip, err := b.buildKind(t)
	delete(b.building, t)
	return enc, dec, skip, err
}

func (b *builder) buildKind(t reflect.Type) (encFn, decFn, skipFn, error) {
	switch t.Kind() {
	case reflect.Bool:
		return encBool, decBool, skipFixed(1), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt, b.decInt(t), skipUvarint, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return encUint, b.decUint(t), skipUvarint, nil
	case reflect.Float32:
		return encFloat32, decFloat32, skipFixed(4), nil
	case reflect.Float64:
		return encFloat64, decFloat64, skipFixed(8), nil
	case reflect.Complex64:
		return encComplex64, decComplex64, skipFixed(8), nil
	case reflect.Complex128:
		return encComplex128, decComplex128, skipFixed(16), nil
	case reflect.String:
		return encString, decString, skipString, nil
	case reflect.Struct:
		return b.buildStruct(t)
	case reflect.Pointer:
		return b.buildPointer(t)
	case reflect.Slice:
		return b.buildSlice(t)
	case reflect.Array:
		return b.buildArray(t)
	case reflect.Map:
		return b.buildMap(t)
	default:
		// Interface (dynamic type unknown statically), chan, func,
		// unsafe.Pointer, uintptr: no value-only encoding exists.
		return nil, nil, nil, fmt.Errorf("wire: unsupported kind %s (%s)", t.Kind(), t)
	}
}

// minSize returns a static lower bound on the encoded size of a value
// of t, used to validate wire counts before allocating. Zero only for
// types that can legitimately encode to nothing (structs with no
// exported fields, empty arrays).
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.String, reflect.Slice, reflect.Map, reflect.Pointer:
		return 1
	case reflect.Float32:
		return 4
	case reflect.Float64:
		return 8
	case reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				n += minSize(f.Type)
			}
		}
		return n
	case reflect.Array:
		return t.Len() * minSize(t.Elem())
	default:
		return 0
	}
}

// maxZeroSizeCount caps wire element counts for types whose encoding
// can be empty: with no per-element bytes to bound the count, a corrupt
// count could otherwise demand an arbitrary allocation.
const maxZeroSizeCount = 1 << 16

// checkCount validates an element count against the remaining input.
func checkCount(n uint64, elemMin, remaining int) error {
	if elemMin > 0 {
		if n > uint64(remaining/elemMin) {
			return fmt.Errorf("wire: count %d exceeds remaining input", n)
		}
		return nil
	}
	if n > maxZeroSizeCount {
		return fmt.Errorf("wire: count %d exceeds zero-size element cap", n)
	}
	return nil
}

// --- primitive codecs ---

func encBool(dst []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decBool(data []byte, pos int, v reflect.Value) (int, error) {
	if pos >= len(data) {
		return 0, errShort
	}
	switch data[pos] {
	case 0:
		v.SetBool(false)
	case 1:
		v.SetBool(true)
	default:
		return 0, fmt.Errorf("wire: invalid bool byte %d", data[pos])
	}
	return pos + 1, nil
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func encInt(dst []byte, v reflect.Value) []byte {
	return binary.AppendUvarint(dst, zigzag(v.Int()))
}

func (b *builder) decInt(t reflect.Type) decFn {
	bits := t.Bits()
	return func(data []byte, pos int, v reflect.Value) (int, error) {
		u, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		i := unzigzag(u)
		if bits < 64 && (i>>(bits-1) != 0 && i>>(bits-1) != -1) {
			return 0, fmt.Errorf("wire: value %d overflows %s", i, t)
		}
		v.SetInt(i)
		return pos, nil
	}
}

func encUint(dst []byte, v reflect.Value) []byte {
	return binary.AppendUvarint(dst, v.Uint())
}

func (b *builder) decUint(t reflect.Type) decFn {
	bits := t.Bits()
	return func(data []byte, pos int, v reflect.Value) (int, error) {
		u, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		if bits < 64 && u>>bits != 0 {
			return 0, fmt.Errorf("wire: value %d overflows %s", u, t)
		}
		v.SetUint(u)
		return pos, nil
	}
}

func encFloat32(dst []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.Float())))
}

func decFloat32(data []byte, pos int, v reflect.Value) (int, error) {
	if pos+4 > len(data) {
		return 0, errShort
	}
	v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))))
	return pos + 4, nil
}

func encFloat64(dst []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
}

func decFloat64(data []byte, pos int, v reflect.Value) (int, error) {
	if pos+8 > len(data) {
		return 0, errShort
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
	return pos + 8, nil
}

func encComplex64(dst []byte, v reflect.Value) []byte {
	c := v.Complex()
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(real(c))))
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(imag(c))))
}

func decComplex64(data []byte, pos int, v reflect.Value) (int, error) {
	if pos+8 > len(data) {
		return 0, errShort
	}
	re := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos:])))
	im := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4:])))
	v.SetComplex(complex(re, im))
	return pos + 8, nil
}

func encComplex128(dst []byte, v reflect.Value) []byte {
	c := v.Complex()
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(c)))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(c)))
}

func decComplex128(data []byte, pos int, v reflect.Value) (int, error) {
	if pos+16 > len(data) {
		return 0, errShort
	}
	re := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
	im := math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:]))
	v.SetComplex(complex(re, im))
	return pos + 16, nil
}

func encString(dst []byte, v reflect.Value) []byte {
	s := v.String()
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decString(data []byte, pos int, v reflect.Value) (int, error) {
	n, pos, err := readUvarint(data, pos)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(data)-pos) {
		return 0, fmt.Errorf("wire: string length %d exceeds remaining input", n)
	}
	v.SetString(string(data[pos : pos+int(n)]))
	return pos + int(n), nil
}

// --- composite codecs ---

func (b *builder) buildStruct(t reflect.Type) (encFn, decFn, skipFn, error) {
	type fieldProg struct {
		idx  int
		enc  encFn
		dec  decFn
		skip skipFn
	}
	var fields []fieldProg
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		enc, dec, skip, err := b.build(f.Type)
		if err != nil {
			return nil, nil, nil, err
		}
		fields = append(fields, fieldProg{idx: i, enc: enc, dec: dec, skip: skip})
	}
	enc := func(dst []byte, v reflect.Value) []byte {
		for i := range fields {
			f := &fields[i]
			dst = f.enc(dst, v.Field(f.idx))
		}
		return dst
	}
	dec := func(data []byte, pos int, v reflect.Value) (int, error) {
		var err error
		for i := range fields {
			f := &fields[i]
			if pos, err = f.dec(data, pos, v.Field(f.idx)); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	skip := func(data []byte, pos int) (int, error) {
		var err error
		for i := range fields {
			if pos, err = fields[i].skip(data, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, skip, nil
}

func (b *builder) buildPointer(t reflect.Type) (encFn, decFn, skipFn, error) {
	elemEnc, elemDec, elemSkip, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, nil, err
	}
	et := t.Elem()
	enc := func(dst []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(dst, 0)
		}
		return elemEnc(append(dst, 1), v.Elem())
	}
	dec := func(data []byte, pos int, v reflect.Value) (int, error) {
		if pos >= len(data) {
			return 0, errShort
		}
		switch data[pos] {
		case 0:
			v.SetZero()
			return pos + 1, nil
		case 1:
			n := reflect.New(et)
			pos, err := elemDec(data, pos+1, n.Elem())
			if err != nil {
				return 0, err
			}
			v.Set(n)
			return pos, nil
		default:
			return 0, fmt.Errorf("wire: invalid presence byte %d", data[pos])
		}
	}
	skip := func(data []byte, pos int) (int, error) {
		if pos >= len(data) {
			return 0, errShort
		}
		if data[pos] == 0 {
			return pos + 1, nil
		}
		return elemSkip(data, pos+1)
	}
	return enc, dec, skip, nil
}

func (b *builder) buildSlice(t reflect.Type) (encFn, decFn, skipFn, error) {
	et := t.Elem()
	// []byte (and any byte-kind slice): bulk copy.
	if et.Kind() == reflect.Uint8 {
		enc := func(dst []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return binary.AppendUvarint(dst, 0)
			}
			dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
			return append(dst, v.Bytes()...)
		}
		dec := func(data []byte, pos int, v reflect.Value) (int, error) {
			n, pos, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				v.SetZero()
				return pos, nil
			}
			n--
			if n > uint64(len(data)-pos) {
				return 0, fmt.Errorf("wire: byte-slice length %d exceeds remaining input", n)
			}
			s := reflect.MakeSlice(t, int(n), int(n))
			reflect.Copy(s, reflect.ValueOf(data[pos:pos+int(n)]))
			v.Set(s)
			return pos + int(n), nil
		}
		skip := func(data []byte, pos int) (int, error) {
			n, pos, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return pos, nil
			}
			n--
			if n > uint64(len(data)-pos) {
				return 0, fmt.Errorf("wire: byte-slice length %d exceeds remaining input", n)
			}
			return pos + int(n), nil
		}
		return enc, dec, skip, nil
	}

	elemEnc, elemDec, elemSkip, err := b.build(et)
	if err != nil {
		return nil, nil, nil, err
	}
	elemMin := minSize(et)
	enc := func(dst []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0)
		}
		l := v.Len()
		dst = binary.AppendUvarint(dst, uint64(l)+1)
		for i := 0; i < l; i++ {
			dst = elemEnc(dst, v.Index(i))
		}
		return dst
	}
	dec := func(data []byte, pos int, v reflect.Value) (int, error) {
		n, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			v.SetZero()
			return pos, nil
		}
		n--
		if err := checkCount(n, elemMin, len(data)-pos); err != nil {
			return 0, err
		}
		s := reflect.MakeSlice(t, int(n), int(n))
		for i := 0; i < int(n); i++ {
			if pos, err = elemDec(data, pos, s.Index(i)); err != nil {
				return 0, err
			}
		}
		v.Set(s)
		return pos, nil
	}
	skip := func(data []byte, pos int) (int, error) {
		n, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return pos, nil
		}
		n--
		if err := checkCount(n, elemMin, len(data)-pos); err != nil {
			return 0, err
		}
		for i := 0; i < int(n); i++ {
			if pos, err = elemSkip(data, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, skip, nil
}

func (b *builder) buildArray(t reflect.Type) (encFn, decFn, skipFn, error) {
	elemEnc, elemDec, elemSkip, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, nil, err
	}
	l := t.Len()
	enc := func(dst []byte, v reflect.Value) []byte {
		for i := 0; i < l; i++ {
			dst = elemEnc(dst, v.Index(i))
		}
		return dst
	}
	dec := func(data []byte, pos int, v reflect.Value) (int, error) {
		var err error
		for i := 0; i < l; i++ {
			if pos, err = elemDec(data, pos, v.Index(i)); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	skip := func(data []byte, pos int) (int, error) {
		var err error
		for i := 0; i < l; i++ {
			if pos, err = elemSkip(data, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, skip, nil
}

// isFlatKeyable mirrors the copier's flat-key rule: map keys must not
// contain reference kinds (fresh deep-copied keys would break lookup
// identity there; here the rule is kept for parity, so every wire-coded
// class also clones through the flat or compiled-copier fastpath).
func isFlatKeyable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return isFlatKeyable(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isFlatKeyable(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (b *builder) buildMap(t reflect.Type) (encFn, decFn, skipFn, error) {
	if !isFlatKeyable(t.Key()) {
		return nil, nil, nil, fmt.Errorf("wire: map key %s contains reference kinds", t.Key())
	}
	keyEnc, keyDec, keySkip, err := b.build(t.Key())
	if err != nil {
		return nil, nil, nil, err
	}
	valEnc, valDec, valSkip, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, nil, err
	}
	kt, vt := t.Key(), t.Elem()
	entryMin := minSize(kt) + minSize(vt)
	enc := func(dst []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
		iter := v.MapRange()
		for iter.Next() {
			dst = keyEnc(dst, iter.Key())
			dst = valEnc(dst, iter.Value())
		}
		return dst
	}
	dec := func(data []byte, pos int, v reflect.Value) (int, error) {
		n, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			v.SetZero()
			return pos, nil
		}
		n--
		if err := checkCount(n, entryMin, len(data)-pos); err != nil {
			return 0, err
		}
		m := reflect.MakeMapWithSize(t, int(n))
		kv := reflect.New(kt).Elem()
		vv := reflect.New(vt).Elem()
		for i := 0; i < int(n); i++ {
			kv.SetZero()
			vv.SetZero()
			if pos, err = keyDec(data, pos, kv); err != nil {
				return 0, err
			}
			if pos, err = valDec(data, pos, vv); err != nil {
				return 0, err
			}
			m.SetMapIndex(kv, vv)
		}
		v.Set(m)
		return pos, nil
	}
	skip := func(data []byte, pos int) (int, error) {
		n, pos, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return pos, nil
		}
		n--
		if err := checkCount(n, entryMin, len(data)-pos); err != nil {
			return 0, err
		}
		for i := 0; i < int(n); i++ {
			if pos, err = keySkip(data, pos); err != nil {
				return 0, err
			}
			if pos, err = valSkip(data, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, skip, nil
}

// --- low-level readers ---

var errShort = fmt.Errorf("wire: unexpected end of input")

// readUvarint reads one unsigned varint, rejecting malformed or
// oversized encodings.
func readUvarint(data []byte, pos int) (uint64, int, error) {
	u, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, errShort
	}
	return u, pos + n, nil
}

// skipFixed skips n bytes.
func skipFixed(n int) skipFn {
	return func(data []byte, pos int) (int, error) {
		if pos+n > len(data) {
			return 0, errShort
		}
		return pos + n, nil
	}
}

// skipUvarint skips one varint of either signedness.
func skipUvarint(data []byte, pos int) (int, error) {
	_, pos, err := readUvarint(data, pos)
	return pos, err
}

// skipString skips one length-prefixed string.
func skipString(data []byte, pos int) (int, error) {
	n, pos, err := readUvarint(data, pos)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(data)-pos) {
		return 0, fmt.Errorf("wire: string length %d exceeds remaining input", n)
	}
	return pos + int(n), nil
}
