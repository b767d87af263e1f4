package wire_test

import (
	"reflect"
	"testing"

	"govents/internal/obvent"
	"govents/internal/rmi"
	"govents/internal/wire"
)

// StockObvent embeds obvent.Base, as every class does.
type StockObvent struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

// StockQuote is the stocktrading example's class of the same name: it
// embeds a same-package struct and has a field of another package's
// struct type.
type StockQuote struct {
	StockObvent
	Market rmi.Ref
}

// TestEmbeddedAndForeignStructFields pins that a class embedding a
// same-package struct beside a foreign package's struct field compiles
// and round-trips through the compiled program. It is an external test
// package because internal/rmi reaches this one through internal/codec.
func TestEmbeddedAndForeignStructFields(t *testing.T) {
	q := StockQuote{
		StockObvent: StockObvent{Company: "Telco", Price: 42, Amount: 9},
		Market:      rmi.Ref{Addr: "n1", Name: "market"},
	}
	prog, err := wire.Compile(reflect.TypeOf(q))
	if err != nil {
		t.Fatalf("wire.Compile(StockQuote): %v", err)
	}
	data := prog.Append(nil, reflect.ValueOf(q))
	rv := reflect.New(reflect.TypeOf(q)).Elem()
	if err := prog.Decode(data, rv); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(rv.Interface(), q) {
		t.Errorf("round trip = %#v, want %#v", rv.Interface(), q)
	}
}
