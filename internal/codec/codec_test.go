package codec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"govents/internal/allocs"
	"govents/internal/obvent"
)

type quote struct {
	obvent.Base
	Company string
	Price   float64
	Amount  int
}

type nested struct {
	obvent.Base
	Inner quote
	Tags  []string
	Meta  map[string]int
}

type timelyQuote struct {
	obvent.Base
	obvent.TimelyBase
	Price float64
}

type priorityAlert struct {
	obvent.Base
	obvent.PriorityBase
	Msg string
}

type certifiedOrder struct {
	obvent.Base
	obvent.CertifiedBase
	obvent.TotalOrderBase
	N int
}

func newCodec(t *testing.T) *Codec {
	t.Helper()
	reg := obvent.NewRegistry()
	reg.MustRegister(quote{})
	reg.MustRegister(nested{})
	reg.MustRegister(timelyQuote{})
	reg.MustRegister(priorityAlert{})
	reg.MustRegister(certifiedOrder{})
	return New(reg)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := newCodec(t)
	in := quote{Company: "Telco Mobiles", Price: 80, Amount: 10}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !env.Name.IsZero() || env.ID != "" {
		t.Errorf("Encode named the envelope %v %q: the disseminator names it", env.Name, env.ID)
	}
	out, err := c.Decode(env)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, ok := out.(quote)
	if !ok {
		t.Fatalf("Decode returned %T", out)
	}
	if got != in {
		t.Errorf("round trip = %+v, want %+v", got, in)
	}
}

func TestEncodeDecodeNested(t *testing.T) {
	c := newCodec(t)
	in := nested{
		Inner: quote{Company: "X", Price: 1.5, Amount: 3},
		Tags:  []string{"a", "b"},
		Meta:  map[string]int{"k": 7},
	}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := c.Decode(env)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := out.(nested)
	if got.Inner != in.Inner || len(got.Tags) != 2 || got.Meta["k"] != 7 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestEncodePointerObvent(t *testing.T) {
	c := newCodec(t)
	env, err := c.Encode(&quote{Company: "P", Price: 2, Amount: 1})
	if err != nil {
		t.Fatalf("Encode(ptr): %v", err)
	}
	out, err := c.Decode(env)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.(quote).Company != "P" {
		t.Errorf("got %+v", out)
	}
}

func TestEnvelopeSemanticsStamping(t *testing.T) {
	c := newCodec(t)

	env, err := c.Encode(certifiedOrder{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.Reliability != obvent.CertifiedDelivery || env.Ordering != obvent.Total {
		t.Errorf("semantics = %v/%v", env.Reliability, env.Ordering)
	}

	env, err = c.Encode(timelyQuote{TimelyBase: obvent.TimelyBase{TTL: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if env.TTL != time.Second {
		t.Errorf("TTL = %v", env.TTL)
	}
	if env.Birth.IsZero() {
		t.Error("Birth must be stamped at encode when zero")
	}

	env, err = c.Encode(priorityAlert{PriorityBase: obvent.PriorityBase{Prio: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !env.HasPriority || env.Priority != 9 {
		t.Errorf("priority = %v/%v", env.HasPriority, env.Priority)
	}
}

func TestEnvelopeExpired(t *testing.T) {
	now := time.Now()
	e := &Envelope{Birth: now, TTL: 10 * time.Millisecond}
	if e.Expired(now) {
		t.Error("fresh envelope must not be expired")
	}
	if !e.Expired(now.Add(20 * time.Millisecond)) {
		t.Error("envelope past TTL must be expired")
	}
	if (&Envelope{}).Expired(now.Add(time.Hour)) {
		t.Error("no TTL means never expired")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	c := newCodec(t)
	if _, err := c.Decode(&Envelope{Type: "no.such.Type"}); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

func TestMarshalUnmarshalEnvelope(t *testing.T) {
	c := newCodec(t)
	env, err := c.Encode(quote{Company: "T", Price: 80, Amount: 10})
	if err != nil {
		t.Fatal(err)
	}
	env.Publisher = "node-1"
	env.PubNanos = 42
	env.Name = Name{Inc: 1790000000123456, N: 9}
	data, err := Marshal(env)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Name != env.Name || back.ID != "" || back.Type != env.Type || back.PubNanos != 42 || back.Publisher != "node-1" {
		t.Errorf("round trip mismatch: %+v", back)
	}
	out, err := c.Decode(back)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.(quote).Company != "T" {
		t.Errorf("payload lost: %+v", out)
	}
}

func TestCloneIsDeepAndDistinct(t *testing.T) {
	c := newCodec(t)
	in := nested{Inner: quote{Company: "X"}, Tags: []string{"t"}, Meta: map[string]int{"k": 1}}
	cl, err := c.Clone(in)
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	got := cl.(nested)
	// Mutating the clone's reference fields must not touch the original
	// (paper §2.1.2 obvent uniqueness).
	got.Tags[0] = "mutated"
	got.Meta["k"] = 99
	if in.Tags[0] != "t" || in.Meta["k"] != 1 {
		t.Error("Clone must deep-copy reference fields")
	}
}

// TestNameText: a Name's text is its two numbers in 16 lowercase hex
// digits each, and reads back as the Name; an earlier build's random ID
// reads as the Name whose text it is; anything else is no Name.
func TestNameText(t *testing.T) {
	for _, n := range []Name{{}, {Inc: 1, N: 1}, {Inc: 1790000000123456, N: 70000}, {Inc: math.MaxUint64, N: math.MaxUint64}} {
		text := n.String()
		if len(text) != nameText || strings.Trim(text, "0123456789abcdef") != "" {
			t.Fatalf("%v renders as %q", n, text)
		}
		if back, ok := ParseName(text); !ok || back != n {
			t.Fatalf("%q parses as %v, %v; want %v", text, back, ok, n)
		}
		if got := string(n.AppendText([]byte("x"))); got != "x"+text {
			t.Fatalf("AppendText = %q", got)
		}
	}
	const random = "9f86d081884c7d659a2feaa0c55ad015" // 128 random bits, as NewID minted them
	if n, ok := ParseName([]byte(random)); !ok || n.String() != random {
		t.Fatalf("an earlier build's ID parses as %v, %v", n, ok)
	}
	for _, bad := range []string{"", "0123", "9F86D081884C7D659A2FEAA0C55AD015", "9f86d081884c7d659a2feaa0c55ad01g", random + "0"} {
		if n, ok := ParseName(bad); ok {
			t.Errorf("%q parses as %v", bad, n)
		}
	}
}

// TestNameAllocs pins the cost of a name's text: rendering into a
// buffer allocates nothing.
func TestNameAllocs(t *testing.T) {
	buf := make([]byte, 0, nameText)
	n := Name{Inc: 1790000000123456}
	if a := allocs.PerRun(1000, func() { n.N++; buf = n.AppendText(buf[:0]) }); a != 0 {
		t.Errorf("AppendText: %.3f allocations per name, want 0", a)
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := newCodec(t)
	f := func(company string, price float64, amount int) bool {
		in := quote{Company: company, Price: price, Amount: amount}
		env, err := c.Encode(in)
		if err != nil {
			return false
		}
		out, err := c.Decode(env)
		if err != nil {
			return false
		}
		q := out.(quote)
		// NaN never compares equal; compare bit-level semantics via !=
		// only for non-NaN.
		if price != price {
			return q.Price != q.Price
		}
		return q == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeReturnsFreshClones(t *testing.T) {
	c := newCodec(t)
	env, err := c.Encode(nested{Tags: []string{"shared"}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := a.(nested), b.(nested)
	na.Tags[0] = "a-mutation"
	if nb.Tags[0] != "shared" {
		t.Error("two decodes of the same envelope must yield independent clones")
	}
}

func TestCloneSourceProducesDistinctClones(t *testing.T) {
	c := newCodec(t)
	in := nested{Inner: quote{Company: "Acme", Price: 10}, Tags: []string{"a"}, Meta: map[string]int{"k": 1}}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	a, err := src.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	b, err := src.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	na, nb := a.(nested), b.(nested)
	if na.Inner != in.Inner || nb.Inner != in.Inner {
		t.Errorf("clones differ from original: %+v / %+v", na, nb)
	}
	// Obvent local uniqueness: mutating one clone's reference state must
	// not affect the other.
	na.Meta["k"] = 99
	na.Tags[0] = "mutated"
	if nb.Meta["k"] != 1 || nb.Tags[0] != "a" {
		t.Errorf("clones share state: %+v", nb)
	}
}

func TestSourceUnknownType(t *testing.T) {
	c := newCodec(t)
	if _, err := c.Source(&Envelope{Type: "no.such.Class"}); err == nil {
		t.Fatal("Source on unknown class should fail")
	}
}

// flatArrayQuote composes every flat kind the fastpath must accept:
// scalars, strings, a fixed array, and a nested flat struct.
type flatArrayQuote struct {
	obvent.Base
	Inner  quote
	Window [4]float64
	Label  string
}

func TestFlatTypeDetection(t *testing.T) {
	c := newCodec(t)
	cases := []struct {
		name string
		o    obvent.Obvent
		want bool
	}{
		{"scalar+string struct", quote{}, true},
		{"nested flat struct+array", flatArrayQuote{}, true},
		{"slice and map fields", nested{}, false},
		{"timely (time.Time holds a pointer)", timelyQuote{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name, err := c.Registry().NameOf(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			typ, _ := c.Registry().TypeByName(name)
			if got := c.wireEntryFor(typ).flat; got != tc.want {
				t.Errorf("flat(%s) = %v, want %v", name, got, tc.want)
			}
			// The cached second answer agrees.
			if got := c.wireEntryFor(typ).flat; got != tc.want {
				t.Errorf("cached flat(%s) = %v, want %v", name, got, tc.want)
			}
		})
	}
}

// TestCloneFlatFastpathIndependence proves clone independence on the
// pointer-free fastpath: every Clone yields a value equal to the
// original, and clones are fully independent objects (mutating one —
// possible once the receiver holds its own copy — never shows through
// another).
func TestCloneFlatFastpathIndependence(t *testing.T) {
	c := newCodec(t)
	c.Registry().MustRegister(flatArrayQuote{})
	in := flatArrayQuote{
		Inner:  quote{Company: "Acme", Price: 10, Amount: 3},
		Window: [4]float64{1, 2, 3, 4},
		Label:  "spot",
	}
	env, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	if !src.we.flat {
		t.Fatal("flat class did not take the value-copy fastpath")
	}
	a, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.(flatArrayQuote), b.(flatArrayQuote)
	if fa != in || fb != in {
		t.Errorf("flat clones differ from original: %+v / %+v", fa, fb)
	}
	// Value semantics: each assertion above copied the boxed value, and
	// mutating one copy (including its array) leaves the others intact.
	fa.Window[0] = -1
	fa.Inner.Price = -1
	if fb != in {
		t.Errorf("clone mutated through sibling: %+v", fb)
	}
	cAgain, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cAgain.(flatArrayQuote) != in {
		t.Errorf("later clone saw earlier mutation: %+v", cAgain)
	}
}

func TestCloneFlatFastpathAllocs(t *testing.T) {
	c := newCodec(t)
	env, err := c.Encode(quote{Company: "Acme", Price: 10, Amount: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Clone(); err != nil { // decode the prototype
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := src.Clone(); err != nil {
			t.Fatal(err)
		}
	})
	// Every clone after the first is the one box made then.
	if allocs != 0 {
		t.Errorf("flat Clone allocates %.1f per call, want 0", allocs)
	}
}

// flatTick is a flat class with no string: decoding one allocates only
// what the codec does.
type flatTick struct {
	obvent.Base
	Seq  int64
	A, B float64
}

// The first clone of a flat compact payload costs its box: the payload is
// decoded into the class's scratch value, not into a value of its own
// that is then copied into the box.
func TestCloneFlatFirstCloneAllocs(t *testing.T) {
	c := newCodec(t)
	c.Registry().MustRegister(flatTick{})
	env, err := c.Encode(flatTick{Seq: 7, A: 1.5, B: -2})
	if err != nil {
		t.Fatal(err)
	}
	var src CloneSource
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.SourceInto(env, &src); err != nil {
			t.Fatal(err)
		}
		o, err := src.Clone()
		if err != nil || o.(flatTick).Seq != 7 {
			t.Fatalf("clone = %+v, %v", o, err)
		}
	})
	if allocs > 1 {
		t.Errorf("first Clone of a flat compact payload allocates %.1f times, want <= 1 (the box)", allocs)
	}
}

// A class whose events differ in length by a varint byte encodes each
// into a buffer sized right the first time: alternating sizes cost
// exactly the allocations of a constant size (the payload buffer's
// starting room covers the class's recent encodings, not only the
// latest one).
func TestEncodeAlternatingSizesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := newCodec(t)
	c.Registry().MustRegister(flatTick{})
	// Seq 1 zigzag-encodes in one byte, Seq 64 in two.
	var short, long obvent.Obvent = flatTick{Seq: 1}, flatTick{Seq: 64}
	// The payload encode alone: Encode's envelope ID comes from
	// crypto/rand, which allocates now and then on its own.
	encode := func(pair ...obvent.Obvent) func() {
		return func() {
			for _, o := range pair {
				if _, _, err := c.encodePayload(nil, o, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	constant := allocs.PerRun(1000, encode(short, short))
	alternating := allocs.PerRun(1000, encode(short, long))
	if alternating != constant {
		t.Errorf("encoding alternating sizes allocates %.3f per pair, constant size %.3f; want equal", alternating, constant)
	}
}

// The scratch value a flat class's payloads are decoded into never
// escapes: each event's clone holds that event's fields, strings
// included, whether its class's events are decoded back to back or on
// eight goroutines at once, and a failed decode in between leaves
// nothing of itself in the next one.
func TestCloneFlatScratchNeverEscapes(t *testing.T) {
	c := newCodec(t)
	c.Registry().MustRegister(flatArrayQuote{})
	event := func(i int) flatArrayQuote {
		return flatArrayQuote{
			Inner:  quote{Company: fmt.Sprint("company-", i), Price: float64(i), Amount: i},
			Window: [4]float64{float64(i), 2, 3, float64(-i)},
			Label:  fmt.Sprint("label-", i),
		}
	}
	decode := func(i int) (obvent.Obvent, error) {
		env, err := c.Encode(event(i))
		if err != nil {
			return nil, err
		}
		var src CloneSource
		if err := c.SourceInto(env, &src); err != nil {
			return nil, err
		}
		return src.Clone()
	}

	first, err := decode(1)
	if err != nil {
		t.Fatal(err)
	}
	// A payload cut short fails part-way through the scratch value.
	env, err := c.Encode(event(99))
	if err != nil {
		t.Fatal(err)
	}
	env.Payload = env.Payload[:len(env.Payload)-3]
	var cut CloneSource
	if err := c.SourceInto(env, &cut); err != nil {
		t.Fatal(err)
	}
	if o, err := cut.Clone(); err == nil {
		t.Fatalf("a cut payload decoded: %+v", o)
	}
	second, err := decode(2)
	if err != nil {
		t.Fatal(err)
	}
	if first.(flatArrayQuote) != event(1) || second.(flatArrayQuote) != event(2) {
		t.Errorf("back to back: got %+v and %+v", first, second)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := make([]obvent.Obvent, 0, 200)
			for i := 0; i < 200; i++ {
				o, err := decode(g*1000 + i)
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, o)
			}
			// Checked after every decode of the goroutine, and while the
			// others still run: a clone sharing the scratch would have
			// been overwritten by now.
			for i, o := range held {
				if o.(flatArrayQuote) != event(g*1000+i) {
					t.Errorf("goroutine %d, event %d: got %+v", g, i, o)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCloneFlatCorruptPayload(t *testing.T) {
	c := newCodec(t)
	env, err := c.Encode(quote{Company: "Acme"})
	if err != nil {
		t.Fatal(err)
	}
	env.Payload = []byte{0xff, 0x00, 0xba, 0xad}
	src, err := c.Source(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the error must repeat, not be cached away
		if _, err := src.Clone(); err == nil {
			t.Fatalf("clone %d of corrupt payload succeeded", i)
		}
	}
}

// BenchmarkCloneSource measures a clone: the shared box of a flat class
// against one decode per clone of a reference-bearing one.
func BenchmarkCloneSource(b *testing.B) {
	reg := obvent.NewRegistry()
	reg.MustRegister(quote{})
	reg.MustRegister(nested{})
	c := New(reg)
	cases := []struct {
		name string
		o    obvent.Obvent
	}{
		{"flat", quote{Company: "Telco Mobiles", Price: 80, Amount: 10}},
		{"pointer-bearing", nested{Inner: quote{Company: "Telco"}, Tags: []string{"a", "b"}, Meta: map[string]int{"k": 1}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			env, err := c.Encode(tc.o)
			if err != nil {
				b.Fatal(err)
			}
			src, err := c.Source(env)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Clone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
