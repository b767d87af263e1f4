package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"govents/internal/obvent"
)

// Classes Exact must accept: every field travels, nothing refers
// elsewhere, no marshaler.
type (
	exactQuote struct {
		obvent.Base
		Company string
		Price   float64
		Amount  int
		Key     int32
		Flags   [3]uint8
		Live    bool
		Nested  exactInner
		Z       complex128
		P       uintptr
	}
	exactInner struct {
		A int8
		B uint64
		C [2]string
	}
	exactEmpty  struct{ obvent.Base }
	exactFloats struct {
		F float32
		R ratio32
		C complex64
		A [2]float32
	}
	ratio32 float32
)

// Classes Exact must refuse, each for one reason.
type (
	withHidden struct {
		Key    int
		hidden int
	}
	withFunc struct {
		Key int
		Fn  func()
	}
	withMarshaler struct {
		Key   int
		Stamp lossyStamp
	}
	withSlice   struct{ Keys []int }
	withPointer struct{ Key *int }
	withAny     struct{ V any }
	withInstant struct{ At time.Time }
)

// lossyStamp marshals to nothing: a round trip zeroes it.
type lossyStamp struct{ N int64 }

func (lossyStamp) MarshalBinary() ([]byte, error)  { return nil, nil }
func (s *lossyStamp) UnmarshalBinary([]byte) error { *s = lossyStamp{}; return nil }

// fillRandom sets every field of v, a settable value of an exact type,
// from rng: floats from arbitrary bits, NaN payloads and negative zero
// included.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> (64 - v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(rng.Uint64() >> (64 - v.Type().Bits()))
	case reflect.Float32: // SetFloat would pass the bits through a float64
		*pointerTo[float32](v) = math.Float32frombits(rng.Uint32())
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(rng.Uint64()))
	case reflect.Complex64:
		*pointerTo[complex64](v) = complex(math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32()))
	case reflect.Complex128:
		v.SetComplex(complex(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())))
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i))
		}
	}
}

// sameBits reports whether a and b, values of one exact type, hold the
// same bits: floats compare as their IEEE bits, not as numbers.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32:
		return math.Float32bits(*pointerTo[float32](a)) == math.Float32bits(*pointerTo[float32](b))
	case reflect.Complex64:
		x, y := *pointerTo[complex64](a), *pointerTo[complex64](b)
		return math.Float32bits(real(x)) == math.Float32bits(real(y)) &&
			math.Float32bits(imag(x)) == math.Float32bits(imag(y))
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestExactRoundTripIsIdentity is the property Exact promises: for
// every class it accepts, decoding the encoding of a random value gives
// back that value bit for bit, whether it was encoded from a variable or
// from a copy of it in an interface (as a class published by value is).
// Each class it refuses has one reason.
func TestExactRoundTripIsIdentity(t *testing.T) {
	for _, v := range []any{exactQuote{}, exactInner{}, exactEmpty{}, exactFloats{}, [4]int16{}} {
		typ := reflect.TypeOf(v)
		if !Exact(typ) {
			t.Errorf("Exact(%s) = false, want true", typ)
			continue
		}
		prog, err := Compile(typ, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			want := reflect.New(typ).Elem()
			fillRandom(rng, want)
			for _, from := range []reflect.Value{want, reflect.ValueOf(want.Interface())} {
				got := reflect.New(typ).Elem()
				if err := prog.Decode(mustAppend(t, prog, from), got); err != nil {
					t.Fatalf("%s: decode of own encoding: %v", typ, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s: round trip (addressable %v) changed the value:\n got %#v\nwant %#v", typ, from.CanAddr(), got, want)
				}
			}
		}
	}
	for _, v := range []any{withHidden{}, withFunc{}, withMarshaler{}, withSlice{}, withPointer{}, withAny{}, withInstant{}, &exactQuote{}, lossyStamp{}} {
		if typ := reflect.TypeOf(v); Exact(typ) {
			t.Errorf("Exact(%s) = true, want false", typ)
		}
	}
}

// TestFloat32SignalingNaNKeepsItsBits: a signaling NaN, which a
// float32-to-float64 conversion makes quiet on amd64, comes back with
// its own bits in each float32 and complex64 field.
func TestFloat32SignalingNaNKeepsItsBits(t *testing.T) {
	prog, err := Compile(reflect.TypeOf(exactFloats{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 0x7f800001
	sig := math.Float32frombits(bits)
	in := exactFloats{F: sig, R: ratio32(sig), C: complex(sig, sig), A: [2]float32{sig, sig}}
	var got exactFloats
	if err := prog.Decode(mustAppend(t, prog, reflect.ValueOf(in)), reflect.ValueOf(&got).Elem()); err != nil {
		t.Fatal(err)
	}
	for i, f := range []float32{got.F, float32(got.R), real(got.C), imag(got.C), got.A[0], got.A[1]} {
		if math.Float32bits(f) != bits {
			t.Errorf("field %d: the signaling NaN %#x came back as %#x", i, bits, math.Float32bits(f))
		}
	}
}
