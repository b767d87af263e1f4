package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"govents/internal/obvent"
)

// fuzzEvent exercises every encoding family the compiler emits: varint
// signed/unsigned at several widths, floats, strings, bulk []byte,
// general slices, maps, pointers, nested structs and arrays.
type fuzzEvent struct {
	B   bool
	I   int64
	I8  int8
	I32 int32
	U   uint64
	U16 uint16
	F   float64
	F32 float32
	S   string
	Bs  []byte
	Is  []int32
	M   map[string]int64
	P   *int64
	N   fuzzNested
	Arr [3]uint16
}

type fuzzNested struct {
	X int
	Y string
}

// buildFuzzEvent derives a fuzzEvent from primitive fuzz arguments. It
// normalizes empty collections to nil (the gob oracle conflates nil and
// empty) and NaN to zero (reflect.DeepEqual cannot compare NaN).
func buildFuzzEvent(b bool, i int64, i8 int8, i32 int32, u uint64, u16 uint16,
	f float64, f32 float32, s string, bs []byte, n int, pSet bool, x int, y string) fuzzEvent {
	if f != f {
		f = 0
	}
	if f32 != f32 {
		f32 = 0
	}
	ev := fuzzEvent{B: b, I: i, I8: i8, I32: i32, U: u, U16: u16, F: f, F32: f32, S: s,
		N: fuzzNested{X: x, Y: y}, Arr: [3]uint16{u16, u16 + 1, u16 + 2}}
	if len(bs) > 0 {
		ev.Bs = bs
	}
	if n < 0 {
		n = -n
	}
	n %= 8
	if n > 0 {
		ev.Is = make([]int32, n)
		ev.M = make(map[string]int64, n)
		for k := 0; k < n; k++ {
			ev.Is[k] = i32 + int32(k)
			ev.M[string(rune('a'+k))] = i + int64(k)
		}
	}
	if pSet {
		// gob drops zero values even through indirection, decoding
		// &0 back to nil; keep the pointee nonzero so the oracle can
		// represent it.
		v := i
		if v == 0 {
			v = 1
		}
		ev.P = &v
	}
	return ev
}

// FuzzWireRoundTrip is the differential fuzz harness of the compact
// codec against the gob oracle: every generated value must survive a
// wire round trip exactly and agree with gob's round trip.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(false, int64(0), int8(0), int32(0), uint64(0), uint16(0), 0.0, float32(0), "", []byte(nil), 0, false, 0, "")
	f.Add(true, int64(-1), int8(-128), int32(1<<30), ^uint64(0), uint16(65535), -1.5, float32(3.25), "hello", []byte{1, 2, 3}, 5, true, -42, "nested")
	f.Add(true, int64(1)<<62, int8(127), int32(-1), uint64(300), uint16(7), 1e-300, float32(0), "\x00\xff", []byte{0}, 1, false, 1<<40, "")

	prog, err := Compile(reflect.TypeOf(fuzzEvent{}), nil)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b bool, i int64, i8 int8, i32 int32, u uint64, u16 uint16,
		f64 float64, f32 float32, s string, bs []byte, n int, pSet bool, x int, y string) {
		ev := buildFuzzEvent(b, i, i8, i32, u, u16, f64, f32, s, bs, n, pSet, x, y)

		data := mustAppend(t, prog, reflect.ValueOf(ev))
		rv := reflect.New(reflect.TypeOf(ev)).Elem()
		if err := prog.Decode(data, rv); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		got := rv.Interface().(fuzzEvent)
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("wire round trip diverged:\n got %#v\nwant %#v", got, ev)
		}

		// Gob oracle: both codecs must tell the same story about the
		// value (after the normalizations buildFuzzEvent applied).
		if oracle := gobRoundTrip(t, ev); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("wire and gob round trips disagree:\nwire %#v\n gob %#v", got, oracle)
		}
	})
}

// point travels as its MarshalBinary output.
type point struct{ X, Y int32 }

func (p point) MarshalBinary() ([]byte, error) {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(p.X)), uint32(p.Y)), nil
}

func (p *point) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("point: %d bytes, want 8", len(b))
	}
	p.X, p.Y = int32(binary.BigEndian.Uint32(b)), int32(binary.BigEndian.Uint32(b[4:]))
	return nil
}

// celsius is only a TextMarshaler: it travels as its text, while gob,
// which ignores text marshalers, moves its field.
type celsius struct{ Milli int64 }

func (c celsius) MarshalText() ([]byte, error) { return strconv.AppendInt(nil, c.Milli, 10), nil }

func (c *celsius) UnmarshalText(b []byte) error {
	v, err := strconv.ParseInt(string(b), 10, 64)
	c.Milli = v
	return err
}

// counter is big.Int's pattern: GobDecode rebuilds unexported reference
// state, which two decodes must not share.
type counter struct {
	vals []int
}

func (c counter) GobEncode() ([]byte, error) {
	out := make([]byte, len(c.vals))
	for i, v := range c.vals {
		out[i] = byte(v)
	}
	return out, nil
}

func (c *counter) GobDecode(b []byte) error {
	c.vals = make([]int, len(b))
	for i, v := range b {
		c.vals[i] = int(v)
	}
	return nil
}

// note is a registered class an interface field can hold.
type note struct {
	obvent.Base
	Text string
	At   time.Time
}

// reading is a registered Timely class.
type reading struct {
	obvent.Base
	obvent.TimelyBase
	V int
}

// node is a recursive list.
type node struct {
	V    int
	Next *node
}

// kindsEvent holds every kind the compiler gained over the flat layouts
// of fuzzEvent. Held, Timed, P and List lead, so a payload that breaks
// one of them can be spelled by hand.
type kindsEvent struct {
	Held  any
	Timed obvent.Timely
	P     point
	List  *node
	Zero  time.Time
	UTC   time.Time
	Zoned time.Time
	PP    *point
	C     celsius
	Count counter
	Ch    chan int
	Fn    func()
	ChP   *chan int
	Keys  map[*point]string
	Nil   any
	U     uintptr
	Tail  string
}

// kindsRegistry registers the classes kindsEvent's interface fields
// hold; gob, the oracle, learns them too.
func kindsRegistry() *obvent.Registry {
	reg := obvent.NewRegistry()
	reg.MustRegister(note{})
	reg.MustRegister(reading{})
	return reg
}

func init() {
	gob.Register(note{})
	gob.Register(reading{})
}

// newList returns a list of n nodes numbered from 1.
func newList(n int) *node {
	var l *node
	for i := n; i > 0; i-- {
		l = &node{V: i, Next: l}
	}
	return l
}

// buildKindsEvent derives a kindsEvent from primitive fuzz arguments,
// within what gob, the oracle, can carry: no empty collection, no nil
// inside one, no zero pointee of a plain integer.
func buildKindsEvent(sec int64, nsec uint32, zone int16, x, y int32, milli int64, text string, n uint8, hold bool) kindsEvent {
	at := time.Unix(sec%(1<<40), int64(nsec%1e9))
	if zone == -1 {
		zone = 1 // time.Time writes a -1 minute offset as UTC's mark and refuses it
	}
	ev := kindsEvent{
		UTC:   at.UTC(),
		Zoned: at.In(time.FixedZone("zone", int(zone)*60)),
		P:     point{x, y},
		C:     celsius{milli},
		Count: counter{vals: []int{int(n), 2, 3}},
		Ch:    make(chan int),
		Fn:    func() {},
		U:     uintptr(milli),
		Tail:  text,
		List:  newList(int(n % 8)),
	}
	if n%2 == 1 {
		ev.PP = &point{y, x}
		ev.Keys = map[*point]string{{x, y}: text, {x, y ^ 1}: "b"}
	}
	if hold {
		ev.Held = note{Text: text, At: at.UTC()}
		ev.Timed = reading{TimelyBase: obvent.TimelyBase{TTL: time.Duration(milli), BirthTime: at.UTC()}, V: int(x)}
	}
	return ev
}

// offsetOf is t's zone offset in seconds.
func offsetOf(t time.Time) int {
	_, off := t.Zone()
	return off
}

// keysByValue is a pointer-keyed map as its keys' values: two decodes
// never share a key pointer.
func keysByValue(m map[*point]string) map[point]string {
	if m == nil {
		return nil
	}
	out := make(map[point]string, len(m))
	for k, v := range m {
		out[*k] = v
	}
	return out
}

// sameKinds compares two decoded kindsEvents, the pointer-keyed map by
// its keys' values.
func sameKinds(a, b kindsEvent) bool {
	if !reflect.DeepEqual(keysByValue(a.Keys), keysByValue(b.Keys)) {
		return false
	}
	a.Keys, b.Keys = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzWireKinds is FuzzWireRoundTrip's sibling over kindsEvent: every
// generated value must round-trip through the wire exactly as through
// gob, its instants intact, the state GobDecode rebuilds unshared
// between two decodes.
func FuzzWireKinds(f *testing.F) {
	f.Add(int64(0), uint32(0), int16(0), int32(0), int32(0), int64(0), "", uint8(0), false)
	f.Add(int64(1790000000), uint32(999999999), int16(330), int32(-7), int32(1<<30), int64(-21500), "hello", uint8(5), true)
	f.Add(int64(-62135596800), uint32(1), int16(-720), int32(1), int32(-1), int64(1)<<62, "\x00\xff", uint8(7), true)

	reg := kindsRegistry()
	typ := reflect.TypeOf(kindsEvent{})
	prog, err := Compile(typ, reg)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, sec int64, nsec uint32, zone int16, x, y int32, milli int64, text string, n uint8, hold bool) {
		ev := buildKindsEvent(sec, nsec, zone, x, y, milli, text, n, hold)
		data := mustAppend(t, prog, reflect.ValueOf(ev))
		decode := func() kindsEvent {
			rv := reflect.New(typ).Elem()
			if err := prog.Decode(data, rv); err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			return rv.Interface().(kindsEvent)
		}
		got, again := decode(), decode()

		if want := gobRoundTrip(t, ev); !sameKinds(got, want) {
			t.Fatalf("wire and gob round trips disagree:\nwire %#v\n gob %#v", got, want)
		}
		if !got.UTC.Equal(ev.UTC) || !got.Zoned.Equal(ev.Zoned) || !got.Zero.IsZero() {
			t.Fatalf("instants moved: %v %v %v, want %v %v zero", got.UTC, got.Zoned, got.Zero, ev.UTC, ev.Zoned)
		}
		if _, off := got.Zoned.Zone(); off != offsetOf(ev.Zoned) {
			t.Fatalf("zone offset %d, want %d", off, offsetOf(ev.Zoned))
		}
		if got.Ch != nil || got.Fn != nil || got.ChP != nil {
			t.Fatal("a chan or func field traveled")
		}
		got.Count.vals[0] = -1
		if again.Count.vals[0] != int(n) {
			t.Fatal("two decodes share the state GobDecode rebuilt")
		}
	})
}

// gobRoundTrip is the oracle: what gob makes of v.
func gobRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// refusedKinds are payloads of kindsEvent each decoder must refuse with
// the error named, allocating nothing the input does not spell out.
func refusedKinds() []struct {
	name, want string
	data       []byte
} {
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	held := func(name string) []byte { return append(str(name), 2, 0, 0) }
	// Held and Timed nil, P's 8 bytes, then a list of maxNesting+2
	// nodes: one recursion past the bound.
	deep := append([]byte{0, 0, 8}, make([]byte, 8)...)
	for i := 0; i < maxNesting+2; i++ {
		deep = append(deep, 1, 2) // present, V 1
	}
	return []struct {
		name, want string
		data       []byte
	}{
		{"unregistered class", "unregistered class", held("no.such.Class")},
		{"class the field cannot hold", "cannot be held", append([]byte{0}, held(obvent.TypeName(reflect.TypeOf(note{})))...)},
		{"marshaler length beyond the input", "exceeds remaining input", []byte{0, 0, 0x7F, 1, 2, 3}},
		{"nesting past the bound", "nests deeper", append(deep, 0)},
	}
}

// FuzzWireDecode throws raw bytes at the compiled decoders: malformed
// payloads must error (never panic, never over-allocate), and any
// payload a decoder accepts must encode to what decodes to it again.
func FuzzWireDecode(f *testing.F) {
	prog, err := Compile(reflect.TypeOf(fuzzEvent{}), nil)
	if err != nil {
		f.Fatal(err)
	}
	kinds, err := Compile(reflect.TypeOf(kindsEvent{}), kindsRegistry())
	if err != nil {
		f.Fatal(err)
	}
	seed, err := prog.Append(nil, reflect.ValueOf(fuzzEvent{S: "seed", Bs: []byte{1}, P: new(int64)}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, r := range refusedKinds() {
		f.Add(r.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rv := reflect.New(reflect.TypeOf(fuzzEvent{})).Elem()
		if prog.Decode(data, rv) == nil {
			got := rv.Interface().(fuzzEvent)
			// Re-encoding the decoded value must round-trip to an
			// equal value (bytes may legally differ: map iteration
			// order and non-minimal varints are not canonicalized).
			re := mustAppend(t, prog, rv)
			rv2 := reflect.New(reflect.TypeOf(fuzzEvent{})).Elem()
			if err := prog.Decode(re, rv2); err != nil {
				t.Fatalf("decode of re-encoding: %v", err)
			}
			again := rv2.Interface().(fuzzEvent)
			// DeepEqual finds a NaN unequal to itself: compare its bits.
			if math.Float64bits(again.F) != math.Float64bits(got.F) || math.Float32bits(again.F32) != math.Float32bits(got.F32) {
				t.Fatalf("re-encode changed the floats: %v %v, want %v %v", again.F, again.F32, got.F, got.F32)
			}
			again.F, again.F32, got.F, got.F32 = 0, 0, 0, 0
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("re-encode round trip diverged:\n got %#v\nwant %#v", again, got)
			}
		}

		// The new kinds: a payload the decoder accepts encodes again
		// (a marshaler may refuse what its unmarshaler let through, as
		// time.Time does an instant of no year it can write), and what
		// it encodes decodes.
		kv := reflect.New(reflect.TypeOf(kindsEvent{})).Elem()
		if kinds.Decode(data, kv) != nil {
			return
		}
		if re, err := kinds.Append(nil, kv); err == nil {
			if err := kinds.Decode(re, reflect.New(reflect.TypeOf(kindsEvent{})).Elem()); err != nil {
				t.Fatalf("decode of re-encoding: %v", err)
			}
		}
	})
}
