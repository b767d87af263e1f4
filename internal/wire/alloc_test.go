package wire

import (
	"bytes"
	"reflect"
	"testing"

	"govents/internal/allocs"
)

// padded is a class with a byte slice and another slice beside a fixed
// field, as a certified event with a padding field is.
type padded struct {
	Seq  int64
	Pad  []byte
	Nums []int32
}

// TestSliceDecodeAllocsOnce pins what decoding a slice field costs: one
// allocation, its array, for a byte slice (copied in bulk) and for any
// other (its elements decoded in place); the slice header is the
// field's. A struct with both decodes in two. Nil and empty slices still
// decode apart, and neither allocates.
func TestSliceDecodeAllocsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := mustCompile(t, padded{})
	out := reflect.New(p.Type()).Elem()
	for _, tc := range []struct {
		name string
		v    padded
		want float64
	}{
		{"a 1 KiB byte slice", padded{Seq: 7, Pad: bytes.Repeat([]byte{0xA5}, 1024)}, 1},
		{"an int32 slice", padded{Seq: 7, Nums: []int32{1, -2, 3}}, 1},
		{"both", padded{Pad: []byte("pad"), Nums: []int32{4}}, 2},
		{"nil slices", padded{Seq: 7}, 0},
		{"empty slices", padded{Pad: []byte{}, Nums: []int32{}}, 0},
	} {
		data := mustAppend(t, p, reflect.ValueOf(tc.v))
		if got := allocs.PerRun(200, func() {
			if err := p.Decode(data, out); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Errorf("%s: decoding allocates %.2f times, want %.0f", tc.name, got, tc.want)
		}
		// DeepEqual tells a nil slice from an empty one.
		if got := out.Interface().(padded); !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, got, tc.v)
		}
	}
}
