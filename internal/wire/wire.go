// Package wire implements the compact binary obvent encoding, the one
// payload encoding there is: per-class encoder/decoder programs compiled
// once, at first sight of a class, by walking its struct type. A
// self-describing encoding such as gob re-transmits the type structure
// with every payload and re-interprets it on every decode, costing ~190
// allocations per event for a three-field struct. But an obvent class's
// layout never changes once registered, so everything structural about
// its encoding is a function of the type alone and can be decided at
// compile time; the payload then carries values only.
//
// # Format
//
// All values encode in field order with no tags, names, or type
// information (both sides compile the same program from the same type):
//
//   - bool: one byte, 0 or 1.
//   - signed integers (including named types like time.Duration):
//     zigzag-encoded unsigned varint.
//   - unsigned integers and uintptr: unsigned varint.
//   - float32 / float64: IEEE 754 bits, little-endian, 4 / 8 bytes.
//   - complex64 / complex128: real then imaginary parts as floats.
//   - string: unsigned varint byte length, then the bytes.
//   - slice, map: unsigned varint 0 for nil, else element count + 1,
//     then the elements (key then value for maps). Nil-ness is
//     preserved exactly — unlike gob, a round trip is the identity. Map
//     keys may hold pointers: every decoded key is a fresh value.
//   - pointer: one presence byte (0 nil, 1 present), then the pointee.
//   - array: the elements, nothing else (length is part of the type).
//   - struct: the exported fields in declaration order. Unexported
//     fields, and fields of chan or func type or pointers to them, do
//     not travel (gob's rule; they are always zero in a decoded value).
//   - a type with a marshaler pair, checked in gob's order — GobEncoder
//     and GobDecoder, then encoding.BinaryMarshaler and
//     BinaryUnmarshaler, then encoding.TextMarshaler and TextUnmarshaler,
//     the first half on the type or its pointer, the second on its
//     pointer: unsigned varint length, then the marshaling method's
//     output. Its fields are never walked. time.Time is one (GobEncode).
//   - interface: the wire name of the dynamic class (obvent.TypeName) as
//     a string, empty for nil with nothing after it; then that class's
//     encoding as an unsigned varint length and the bytes. The class
//     must be registered, exactly (not a pointer to it), in the registry
//     the program was compiled with, and a decoder refuses a name its
//     registry does not know or whose class the field cannot hold.
//
// # Nesting
//
// A recursive type (type node struct{ Next *node }) compiles. Every
// descent through its recursion, and every interface field entered,
// counts one level of nesting; past maxNesting levels encoding fails (a
// cyclic value is an error, not a hang) and so does decoding (a hostile
// payload cannot exhaust the stack).
//
// # Compilation
//
// Compile refuses what gob refuses too: unsafe.Pointer anywhere, and
// chan or func anywhere but a struct field. It also refuses an
// unexported embedded struct with an exported field, which gob drops
// silently: Go promotes the field, so the class reads as if it had it,
// and every receiver would decode it zero. Compilation is
// deterministic per layout, so every node of one build compiles each
// class alike.
//
// Decoding is defensive: every length and count read off the wire is
// validated against the remaining input before allocation, and a
// payload with trailing garbage is an error, so a corrupt or hostile
// payload cannot allocate unbounded memory or silently truncate.
package wire

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"govents/internal/obvent"
)

// maxNesting bounds how deep a value nests through recursive types and
// interface fields.
const maxNesting = 1000

var errNesting = fmt.Errorf("wire: value nests deeper than %d levels", maxNesting)

// encFn appends v's encoding to dst. depth is the nesting level of v.
type encFn func(dst []byte, v reflect.Value, depth int) ([]byte, error)

// decFn decodes into v (settable) from data at pos, returning the next
// position.
type decFn func(data []byte, pos int, v reflect.Value, depth int) (int, error)

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
// to dst and returns the extended buffer. On error, which a marshaling
// method, a value nesting past the bound or an interface field holding
// an unregistered class can cause, dst is returned unchanged.
func (p *Prog) Append(dst []byte, v reflect.Value) ([]byte, error) {
	out, err := p.enc(dst, v, 0)
	if err != nil {
		return dst, fmt.Errorf("wire: encode %s: %w", p.t, err)
	}
	return out, nil
}

// Decode decodes data into v, a settable zero value of the program's
// type. The whole input must be consumed: trailing bytes are an error
// (a truncated or mis-framed payload must not decode "successfully").
func (p *Prog) Decode(data []byte, v reflect.Value) error {
	pos, err := p.dec(data, 0, v, 0)
	if err != nil {
		return err
	}
	if pos != len(data) {
		return fmt.Errorf("wire: %s: %d trailing bytes", p.t, len(data)-pos)
	}
	return nil
}

// Compile builds the codec program for class type t. reg names the
// classes its interface fields hold; it may be nil for a class with
// none. Callers cache the outcome per type (a layout never changes).
func Compile(t reflect.Type, reg *obvent.Registry) (*Prog, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return CompileValue(t, reg)
}

// CompileValue builds the codec program for values of type t as they
// are: unlike Compile's, a pointer's is its presence byte and its
// pointee's. Remote invocation encodes its arguments and results so.
func CompileValue(t reflect.Type, reg *obvent.Registry) (*Prog, error) {
	b := &builder{reg: reg, building: make(map[reflect.Type]*codecFns)}
	enc, dec, err := b.build(t)
	if err != nil {
		return nil, err
	}
	return &Prog{t: t, enc: enc, dec: dec}, nil
}

// gobEncoder and gobDecoder are encoding/gob's GobEncoder and
// GobDecoder, which a type implements by method set alone.
type gobEncoder interface{ GobEncode() ([]byte, error) }
type gobDecoder interface{ GobDecode([]byte) error }

// Marshaler pairs, in the order gob consults them.
const (
	pairGob = iota
	pairBinary
	pairText
)

var marshalPairs = [...]struct{ marshal, unmarshal reflect.Type }{
	pairGob:    {reflect.TypeFor[gobEncoder](), reflect.TypeFor[gobDecoder]()},
	pairBinary: {reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler]()},
	pairText:   {reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler]()},
}

// marshalerOf reports the first marshaler pair t has both halves of.
// Pointers and interfaces never count: a pointer travels as its
// presence byte and its pointee, an interface as its dynamic class.
func marshalerOf(t reflect.Type) (pair int, ok bool) {
	if k := t.Kind(); k == reflect.Pointer || k == reflect.Interface {
		return 0, false
	}
	pt := reflect.PointerTo(t)
	for i, p := range marshalPairs {
		if pt.Implements(p.marshal) && pt.Implements(p.unmarshal) {
			return i, true
		}
	}
	return 0, false
}

// travels reports whether a struct field is part of the encoding:
// exported, and not a chan or func (or a pointer to one).
func travels(f reflect.StructField) bool {
	if !f.IsExported() {
		return false
	}
	t := f.Type
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Kind() != reflect.Chan && t.Kind() != reflect.Func
}

// Exact reports whether decoding the encoding of any value of type t
// gives back that value bit for bit: t holds no reference kind (a
// pointer, slice, map, interface, chan or func), every struct field in
// it travels, and none of its types has a marshaler, whose output may
// leave state behind. Every float and complex kind travels as its own
// bits, NaN payloads included.
func Exact(t reflect.Type) bool {
	if _, ok := marshalerOf(t); ok {
		return false
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return true
	case reflect.Array:
		return Exact(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); !travels(f) || !Exact(f.Type) {
				return false
			}
		}
		return true
	}
	return false
}

// promotedAway refuses f, a field of t that does not travel, when it is
// an unexported embedded struct (or pointer to one) holding a field that
// would: Go promotes that field into t, where it reads as t's own (a
// filter path, an accessor method reads it), but gob's rule leaves the
// whole embedded field off the wire, so every receiver would see it
// zero.
func promotedAway(t reflect.Type, f reflect.StructField) error {
	if !f.Anonymous || f.IsExported() {
		return nil
	}
	et := f.Type
	for et.Kind() == reflect.Pointer {
		et = et.Elem()
	}
	if et.Kind() != reflect.Struct {
		return nil
	}
	for i := 0; i < et.NumField(); i++ {
		g := et.Field(i)
		if travels(g) {
			return fmt.Errorf("wire: %s: field %s.%s would not travel: it is promoted from the unexported embedded %s, which gob's rule leaves off the wire (export the embedded type, or name the field)", t, f.Name, g.Name, et)
		}
		if err := promotedAway(et, g); err != nil {
			return err
		}
	}
	return nil
}

// codecFns is one type's compiled functions, filled in once its build
// is done; a recursive reference built meanwhile calls through it.
type codecFns struct {
	enc encFn
	dec decFn
}

// builder compiles one class, tracking in-progress types to detect
// recursion.
type builder struct {
	reg      *obvent.Registry
	building map[reflect.Type]*codecFns
}

// build compiles the encoder and decoder for t.
func (b *builder) build(t reflect.Type) (encFn, decFn, error) {
	if pair, ok := marshalerOf(t); ok {
		return buildMarshaler(t, pair)
	}
	if fns, ok := b.building[t]; ok {
		return recursion(fns)
	}
	fns := new(codecFns)
	b.building[t] = fns
	enc, dec, err := b.buildKind(t)
	delete(b.building, t)
	*fns = codecFns{enc, dec}
	return enc, dec, err
}

// recursion is a type's reference to itself: one level deeper, through
// the functions its build fills in.
func recursion(fns *codecFns) (encFn, decFn, error) {
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		if depth >= maxNesting {
			return dst, errNesting
		}
		return fns.enc(dst, v, depth+1)
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
		if depth >= maxNesting {
			return 0, errNesting
		}
		return fns.dec(data, pos, v, depth+1)
	}
	return enc, dec, nil
}

func (b *builder) buildKind(t reflect.Type) (encFn, decFn, error) {
	switch t.Kind() {
	case reflect.Bool:
		return encBool, decBool, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt, decInt(t), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return encUint, decUint(t), nil
	case reflect.Float32:
		return encFloat32, decFloat32, nil
	case reflect.Float64:
		return encFloat64, decFloat64, nil
	case reflect.Complex64:
		return encComplex64, decComplex64, nil
	case reflect.Complex128:
		return encComplex128, decComplex128, nil
	case reflect.String:
		return encString, decString, nil
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
	case reflect.Interface:
		return b.buildInterface(t)
	default:
		// unsafe.Pointer, and chan or func outside a struct field
		// (where they are skipped): gob refuses these too.
		return nil, nil, fmt.Errorf("wire: unsupported kind %s (%s)", t.Kind(), t)
	}
}

// minSize returns a static lower bound on the encoded size of a value
// of t, used to validate wire counts before allocating. Zero only for
// types that can legitimately encode to nothing (structs with no field
// that travels, empty arrays).
func minSize(t reflect.Type) int {
	if _, ok := marshalerOf(t); ok {
		return 1
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
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
			if f := t.Field(i); travels(f) {
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

func encBool(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	if v.Bool() {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

func decBool(data []byte, pos int, v reflect.Value, _ int) (int, error) {
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

func encInt(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.AppendUvarint(dst, zigzag(v.Int())), nil
}

func decInt(t reflect.Type) decFn {
	bits := t.Bits()
	return func(data []byte, pos int, v reflect.Value, _ int) (int, error) {
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

func encUint(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.AppendUvarint(dst, v.Uint()), nil
}

func decUint(t reflect.Type) decFn {
	bits := t.Bits()
	return func(data []byte, pos int, v reflect.Value, _ int) (int, error) {
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

// pointerTo returns a *T to what v, addressable and of a type whose
// underlying type is T, holds. A float32 or complex64 is read and
// written through one, as its own bits: v.Float and v.SetFloat pass it
// through a float64, which turns a signaling NaN into a quiet one.
func pointerTo[T any](v reflect.Value) *T {
	return v.Addr().Convert(reflect.TypeFor[*T]()).Interface().(*T)
}

// bitsOf returns the T v, of a type whose underlying type is T, holds.
func bitsOf[T any](v reflect.Value) T {
	switch {
	case v.CanAddr():
		return *pointerTo[T](v)
	case v.Type() == reflect.TypeFor[T]():
		return v.Interface().(T)
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	return *pointerTo[T](c)
}

func encFloat32(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(bitsOf[float32](v))), nil
}

func decFloat32(data []byte, pos int, v reflect.Value, _ int) (int, error) {
	if pos+4 > len(data) {
		return 0, errShort
	}
	*pointerTo[float32](v) = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
	return pos + 4, nil
}

func encFloat64(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float())), nil
}

func decFloat64(data []byte, pos int, v reflect.Value, _ int) (int, error) {
	if pos+8 > len(data) {
		return 0, errShort
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
	return pos + 8, nil
}

func encComplex64(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	c := bitsOf[complex64](v)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(real(c)))
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(imag(c))), nil
}

func decComplex64(data []byte, pos int, v reflect.Value, _ int) (int, error) {
	if pos+8 > len(data) {
		return 0, errShort
	}
	re := math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
	im := math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4:]))
	*pointerTo[complex64](v) = complex(re, im)
	return pos + 8, nil
}

func encComplex128(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	c := v.Complex()
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(c)))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(c))), nil
}

func decComplex128(data []byte, pos int, v reflect.Value, _ int) (int, error) {
	if pos+16 > len(data) {
		return 0, errShort
	}
	re := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
	im := math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:]))
	v.SetComplex(complex(re, im))
	return pos + 16, nil
}

func encString(dst []byte, v reflect.Value, _ int) ([]byte, error) {
	s := v.String()
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

func decString(data []byte, pos int, v reflect.Value, _ int) (int, error) {
	b, pos, err := readSpan(data, pos)
	if err != nil {
		return 0, err
	}
	v.SetString(string(b))
	return pos, nil
}

// --- marshaled types ---

// buildMarshaler compiles a type that travels as the output of its
// marshaler pair's methods.
func buildMarshaler(t reflect.Type, pair int) (encFn, decFn, error) {
	onValue := t.Implements(marshalPairs[pair].marshal)
	enc := func(dst []byte, v reflect.Value, _ int) ([]byte, error) {
		var m any
		switch {
		case v.CanAddr():
			m = v.Addr().Interface()
		case onValue:
			m = v.Interface()
		default:
			p := reflect.New(t)
			p.Elem().Set(v)
			m = p.Interface()
		}
		var out []byte
		var err error
		switch pair {
		case pairGob:
			out, err = m.(gobEncoder).GobEncode()
		case pairBinary:
			out, err = m.(encoding.BinaryMarshaler).MarshalBinary()
		default:
			out, err = m.(encoding.TextMarshaler).MarshalText()
		}
		if err != nil {
			return dst, fmt.Errorf("%s: %w", t, err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(out)))
		return append(dst, out...), nil
	}
	dec := func(data []byte, pos int, v reflect.Value, _ int) (int, error) {
		b, pos, err := readSpan(data, pos)
		if err != nil {
			return 0, err
		}
		m := v.Addr().Interface()
		switch pair {
		case pairGob:
			err = m.(gobDecoder).GobDecode(b)
		case pairBinary:
			err = m.(encoding.BinaryUnmarshaler).UnmarshalBinary(b)
		default:
			err = m.(encoding.TextUnmarshaler).UnmarshalText(b)
		}
		if err != nil {
			return 0, fmt.Errorf("wire: %s: %w", t, err)
		}
		return pos, nil
	}
	return enc, dec, nil
}

// --- interface fields ---

// ifaceField resolves the classes one interface field holds, caching
// each class's name and program under both its type and its name.
type ifaceField struct {
	t       reflect.Type // the field's interface type
	reg     *obvent.Registry
	classes sync.Map // reflect.Type or string -> *ifaceClass
}

type ifaceClass struct {
	name string
	prog *Prog
}

var errNoRegistry = errors.New("wire: no registry to resolve an interface field's class")

// byType resolves the class of a value the field holds.
func (f *ifaceField) byType(ct reflect.Type) (*ifaceClass, error) {
	if c, ok := f.classes.Load(ct); ok {
		return c.(*ifaceClass), nil
	}
	if f.reg == nil {
		return nil, errNoRegistry
	}
	name := obvent.TypeName(ct)
	if rt, ok := f.reg.TypeByName(name); !ok || rt != ct {
		return nil, fmt.Errorf("wire: interface field holds %s, which is not a registered class", ct)
	}
	return f.store(name, ct)
}

// byName resolves a class name read off the wire.
func (f *ifaceField) byName(name []byte) (*ifaceClass, error) {
	if c, ok := f.classes.Load(string(name)); ok {
		return c.(*ifaceClass), nil
	}
	if f.reg == nil {
		return nil, errNoRegistry
	}
	ct, ok := f.reg.TypeByName(string(name))
	if !ok {
		return nil, fmt.Errorf("wire: interface field names unregistered class %q", name)
	}
	if !ct.AssignableTo(f.t) {
		return nil, fmt.Errorf("wire: class %s cannot be held by %s", ct, f.t)
	}
	return f.store(string(name), ct)
}

func (f *ifaceField) store(name string, ct reflect.Type) (*ifaceClass, error) {
	p, err := Compile(ct, f.reg)
	if err != nil {
		return nil, err
	}
	c := &ifaceClass{name: name, prog: p}
	f.classes.Store(ct, c)
	f.classes.Store(name, c)
	return c, nil
}

func (b *builder) buildInterface(t reflect.Type) (encFn, decFn, error) {
	f := &ifaceField{t: t, reg: b.reg}
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(dst, 0), nil
		}
		if depth >= maxNesting {
			return dst, errNesting
		}
		e := v.Elem()
		c, err := f.byType(e.Type())
		if err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(c.name)))
		dst = append(dst, c.name...)
		start := len(dst)
		if dst, err = c.prog.enc(dst, e, depth+1); err != nil {
			return dst, err
		}
		return prefixLength(dst, start), nil
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
		name, pos, err := readSpan(data, pos)
		if err != nil {
			return 0, err
		}
		if len(name) == 0 {
			v.SetZero()
			return pos, nil
		}
		if depth >= maxNesting {
			return 0, errNesting
		}
		c, err := f.byName(name)
		if err != nil {
			return 0, err
		}
		body, pos, err := readSpan(data, pos)
		if err != nil {
			return 0, err
		}
		nv := reflect.New(c.prog.t).Elem()
		end, err := c.prog.dec(body, 0, nv, depth+1)
		if err != nil {
			return 0, err
		}
		if end != len(body) {
			return 0, fmt.Errorf("wire: %s in an interface field: %d trailing bytes", c.prog.t, len(body)-end)
		}
		v.Set(nv)
		return pos, nil
	}
	return enc, dec, nil
}

// prefixLength inserts, at start, the unsigned varint length of what
// dst holds after start.
func prefixLength(dst []byte, start int) []byte {
	n := len(dst) - start
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	dst = append(dst, l[:k]...)
	copy(dst[start+k:], dst[start:start+n])
	copy(dst[start:], l[:k])
	return dst
}

// --- composite codecs ---

func (b *builder) buildStruct(t reflect.Type) (encFn, decFn, error) {
	type fieldProg struct {
		idx int
		enc encFn
		dec decFn
	}
	var fields []fieldProg
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !travels(f) {
			if err := promotedAway(t, f); err != nil {
				return nil, nil, err
			}
			continue
		}
		enc, dec, err := b.build(f.Type)
		if err != nil {
			return nil, nil, err
		}
		fields = append(fields, fieldProg{idx: i, enc: enc, dec: dec})
	}
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := range fields {
			f := &fields[i]
			if dst, err = f.enc(dst, v.Field(f.idx), depth); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
		var err error
		for i := range fields {
			f := &fields[i]
			if pos, err = f.dec(data, pos, v.Field(f.idx), depth); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, nil
}

func (b *builder) buildPointer(t reflect.Type) (encFn, decFn, error) {
	elemEnc, elemDec, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, err
	}
	et := t.Elem()
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return elemEnc(append(dst, 1), v.Elem(), depth)
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
		if pos >= len(data) {
			return 0, errShort
		}
		switch data[pos] {
		case 0:
			v.SetZero()
			return pos + 1, nil
		case 1:
			n := reflect.New(et)
			pos, err := elemDec(data, pos+1, n.Elem(), depth)
			if err != nil {
				return 0, err
			}
			v.Set(n)
			return pos, nil
		default:
			return 0, fmt.Errorf("wire: invalid presence byte %d", data[pos])
		}
	}
	return enc, dec, nil
}

func (b *builder) buildSlice(t reflect.Type) (encFn, decFn, error) {
	et := t.Elem()
	// []byte (and any byte-kind slice whose elements have no marshaler):
	// bulk copy.
	if _, marshaled := marshalerOf(et); et.Kind() == reflect.Uint8 && !marshaled {
		enc := func(dst []byte, v reflect.Value, _ int) ([]byte, error) {
			if v.IsNil() {
				return binary.AppendUvarint(dst, 0), nil
			}
			dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
			return append(dst, v.Bytes()...), nil
		}
		dec := func(data []byte, pos int, v reflect.Value, _ int) (int, error) {
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
			// One allocation, the array: v takes the slice header in
			// place. An empty slice is not nil (make of zero length).
			b := make([]byte, n)
			copy(b, data[pos:])
			v.SetBytes(b)
			return pos + int(n), nil
		}
		return enc, dec, nil
	}

	elemEnc, elemDec, err := b.build(et)
	if err != nil {
		return nil, nil, err
	}
	elemMin := minSize(et)
	empty := reflect.MakeSlice(t, 0, 0)
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0), nil
		}
		l := v.Len()
		dst = binary.AppendUvarint(dst, uint64(l)+1)
		var err error
		for i := 0; i < l; i++ {
			if dst, err = elemEnc(dst, v.Index(i), depth); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
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
		// The elements are decoded in place, into an array grown from
		// the zeroed field: one allocation, where MakeSlice and Set take
		// a second for the slice header. Grow(0) leaves a nil slice, so
		// an empty one is empty, shared.
		v.SetZero()
		if n == 0 {
			v.Set(empty)
			return pos, nil
		}
		v.Grow(int(n))
		v.SetLen(int(n))
		for i := 0; i < int(n); i++ {
			if pos, err = elemDec(data, pos, v.Index(i), depth); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, nil
}

func (b *builder) buildArray(t reflect.Type) (encFn, decFn, error) {
	elemEnc, elemDec, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, err
	}
	l := t.Len()
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := 0; i < l; i++ {
			if dst, err = elemEnc(dst, v.Index(i), depth); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
		var err error
		for i := 0; i < l; i++ {
			if pos, err = elemDec(data, pos, v.Index(i), depth); err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	return enc, dec, nil
}

// holdsInterface reports whether a value of t can hold an interface:
// such a map key is comparable by type yet may decode to a class that is
// not.
func holdsInterface(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Array:
		return holdsInterface(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsInterface(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

func (b *builder) buildMap(t reflect.Type) (encFn, decFn, error) {
	keyEnc, keyDec, err := b.build(t.Key())
	if err != nil {
		return nil, nil, err
	}
	valEnc, valDec, err := b.build(t.Elem())
	if err != nil {
		return nil, nil, err
	}
	kt, vt := t.Key(), t.Elem()
	entryMin := minSize(kt) + minSize(vt)
	checkKeys := holdsInterface(kt)
	enc := func(dst []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return binary.AppendUvarint(dst, 0), nil
		}
		dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
		iter := v.MapRange()
		var err error
		for iter.Next() {
			if dst, err = keyEnc(dst, iter.Key(), depth); err != nil {
				return dst, err
			}
			if dst, err = valEnc(dst, iter.Value(), depth); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	dec := func(data []byte, pos int, v reflect.Value, depth int) (int, error) {
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
			if pos, err = keyDec(data, pos, kv, depth); err != nil {
				return 0, err
			}
			if checkKeys && !kv.Comparable() {
				return 0, fmt.Errorf("wire: map key of %s is not comparable", t)
			}
			if pos, err = valDec(data, pos, vv, depth); err != nil {
				return 0, err
			}
			m.SetMapIndex(kv, vv)
		}
		v.Set(m)
		return pos, nil
	}
	return enc, dec, nil
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

// readSpan reads one length-prefixed byte string, returned as a slice
// of data whose capacity ends with it.
func readSpan(data []byte, pos int) ([]byte, int, error) {
	n, pos, err := readUvarint(data, pos)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("wire: length %d exceeds remaining input", n)
	}
	end := pos + int(n)
	return data[pos:end:end], end, nil
}
