package core

import (
	"testing"

	"govents/internal/codec"
	"govents/internal/obvent"
)

// as takes o as a T the way a typed subscription takes an event (Take):
// from a source over o's envelope, encoded by cdc. ok is false for an
// event that is not a T, and for one that does not encode or decode.
func as[T obvent.Obvent](cdc *codec.Codec, o obvent.Obvent) (v T, ok bool) {
	env, err := cdc.Encode(o)
	if err != nil {
		return v, false
	}
	var src codec.CloneSource
	defer src.Reset()
	if cdc.SourceInto(env, &src) != nil {
		return v, false
	}
	v, ok, err = Take[T]()(&src)
	return v, ok && err == nil
}

func TestAsDirect(t *testing.T) {
	cdc := newLocalEngine(t).Codec()
	q := StockQuote{StockObvent{Company: "X"}}
	got, ok := as[StockQuote](cdc, q)
	if !ok || got.Company != "X" {
		t.Fatalf("as direct = %+v, %v", got, ok)
	}
}

func TestAsUpcastExtractsEmbedded(t *testing.T) {
	cdc := newLocalEngine(t).Codec()
	sp := SpotPrice{StockRequest{StockObvent{Company: "Y", Price: 5}}}
	// One level.
	req, ok := as[StockRequest](cdc, sp)
	if !ok || req.Company != "Y" {
		t.Fatalf("as parent = %+v, %v", req, ok)
	}
	// Two levels.
	base, ok := as[StockObvent](cdc, sp)
	if !ok || base.Price != 5 {
		t.Fatalf("as grandparent = %+v, %v", base, ok)
	}
}

func TestAsPointerObvent(t *testing.T) {
	cdc := newLocalEngine(t).Codec()
	sp := &SpotPrice{StockRequest{StockObvent{Company: "Z"}}}
	base, ok := as[StockObvent](cdc, sp)
	if !ok || base.Company != "Z" {
		t.Fatalf("as via pointer = %+v, %v", base, ok)
	}
}

// bare is a registered obvent that implements no accessor.
type bare struct{ obvent.Base }

func TestAsInterface(t *testing.T) {
	e := newLocalEngine(t)
	e.Registry().MustRegister(bare{})
	q := StockQuote{StockObvent{Price: 42}}
	p, ok := as[Priced](e.Codec(), q)
	if !ok || p.GetPrice() != 42 {
		t.Fatalf("as interface = %v, %v", p, ok)
	}
	// An obvent NOT implementing the interface.
	if _, ok := as[Priced](e.Codec(), bare{}); ok {
		t.Fatal("bare obvent must not convert to Priced")
	}
}

func TestAsUnrelatedStructFails(t *testing.T) {
	cdc := newLocalEngine(t).Codec()
	if _, ok := as[StockQuote](cdc, StockRequest{}); ok {
		t.Fatal("sibling conversion must fail")
	}
	if _, ok := as[SpotPrice](cdc, StockObvent{}); ok {
		t.Fatal("downcast must fail")
	}
}

func TestAsUpcastIsViewOnly(t *testing.T) {
	// The supertype view is a copy of the decoded event: two takes from
	// one source do not alias (value semantics of the paper's clones).
	cdc := newLocalEngine(t).Codec()
	env, err := cdc.Encode(SpotPrice{StockRequest{StockObvent{Company: "orig"}}})
	if err != nil {
		t.Fatal(err)
	}
	var src codec.CloneSource
	defer src.Reset()
	if err := cdc.SourceInto(env, &src); err != nil {
		t.Fatal(err)
	}
	take := Take[StockObvent]()
	base, ok, err := take(&src)
	if !ok || err != nil {
		t.Fatalf("take = %v, %v", ok, err)
	}
	base.Company = "mutated"
	if again, _, _ := take(&src); again.Company != "orig" {
		t.Fatal("upcast view aliased the decoded event")
	}
}

func TestSubscribeDynamicValidatesInputs(t *testing.T) {
	e := newLocalEngine(t)
	if _, err := e.SubscribeDynamic(obvent.TypeOf[StockQuote](), nil, nil, nil); err == nil {
		t.Fatal("nil handler must fail")
	}
}
