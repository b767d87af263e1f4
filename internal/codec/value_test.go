package codec

import (
	"testing"

	"govents/internal/obvent"
)

// hiddenQuote's unexported field does not travel.
type hiddenQuote struct {
	obvent.Base
	Price  float64
	secret int
}

// stamp marshals to nothing: a round trip zeroes it.
type stamp struct{ N int64 }

func (stamp) MarshalBinary() ([]byte, error)  { return nil, nil }
func (s *stamp) UnmarshalBinary([]byte) error { *s = stamp{}; return nil }

type stampedQuote struct {
	obvent.Base
	Price float64
	Stamp stamp
}

// narrowQuote holds a float32, whose bits travel through a float64.
type narrowQuote struct {
	obvent.Base
	Price float32
}

// TestEnvelopeValueOnlyForExactClasses pins which envelopes carry the
// value they were encoded from: a flat class published by value whose
// every field travels and which has no marshaler (wire.Exact), and no
// other. Where it is carried, decoding the payload gives it back;
// Release drops it, and a decoded envelope has none.
func TestEnvelopeValueOnlyForExactClasses(t *testing.T) {
	c := newCodec(t)
	for _, o := range []obvent.Obvent{hiddenQuote{}, stampedQuote{}, narrowQuote{}, flatArrayQuote{}} {
		c.Registry().MustRegister(o)
	}
	for _, tc := range []struct {
		name  string
		o     obvent.Obvent
		exact bool
	}{
		{"flat", quote{Company: "Acme", Price: 10, Amount: 3}, true},
		{"flat with an array and a nested struct", flatArrayQuote{Inner: quote{Price: 1}, Window: [4]float64{1, 2, 3, 4}, Label: "spot"}, true},
		{"published as a pointer", &quote{Company: "Acme", Price: 10}, false},
		{"unexported field", hiddenQuote{Price: 1, secret: 5}, false},
		{"marshaler field", stampedQuote{Price: 1, Stamp: stamp{N: 5}}, false},
		{"float32 field", narrowQuote{Price: 1}, false},
		{"slice and map fields", nested{Tags: []string{"a"}}, false},
		{"timely (time.Time has a marshaler)", timelyQuote{Price: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := c.EncodeFrom("node-0", tc.o)
			if err != nil {
				t.Fatal(err)
			}
			v := env.Value()
			if (v != nil) != tc.exact {
				t.Fatalf("Value() = %#v, want a value: %v", v, tc.exact)
			}
			if v != nil {
				if v != tc.o {
					t.Errorf("Value() = %#v, want the published %#v", v, tc.o)
				}
				if got, err := c.Decode(env); err != nil || got != v {
					t.Errorf("decoded %#v (err %v), Value() %#v: want equal", got, err, v)
				}
			}
			rec, err := Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if back.Value() != nil {
				t.Errorf("a decoded envelope carries %#v", back.Value())
			}
			Release(env)
			if env.Value() != nil {
				t.Error("Release kept the value")
			}
		})
	}
}
