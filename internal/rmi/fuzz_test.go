package rmi

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"govents/internal/clock"
	"govents/internal/netsim"
)

// fuzzTarget is a bound receiver whose methods take what a call can
// carry: plain values, a slice, and a variadic list.
type fuzzTarget struct{ stockMarket }

func (*fuzzTarget) Sum(xs ...int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func (*fuzzTarget) Join(parts []string, sep string) string {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(p)
	}
	return b.String()
}

// replyTap is a transport that counts the frames the runtime sends.
type replyTap struct {
	mu   sync.Mutex
	sent int
}

func (*replyTap) Addr() string              { return "server" }
func (*replyTap) SetHandler(netsim.Handler) {}
func (*replyTap) Close() error              { return nil }
func (r *replyTap) Send(string, []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
	return nil
}

// encRecord is m as a peer sends it.
func encRecord(t testing.TB, m *record) []byte {
	data, err := recordProg.Append(nil, reflect.ValueOf(m).Elem())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encArgs encodes each argument as a call carries it.
func encArgs(t testing.TB, args ...any) [][]byte {
	r := &Runtime{}
	vs := make([]reflect.Value, len(args))
	for i, a := range args {
		vs[i] = reflect.ValueOf(a)
	}
	raws, err := r.encode(vs, "arg")
	if err != nil {
		t.Fatal(err)
	}
	return raws
}

// FuzzRMIDecode feeds the runtime's record handler, the decoder a peer's
// bytes reach once its link has delivered them, raw input: calls on a
// bound object (a variadic method among them), results for calls nobody
// made, lease traffic, and garbage. It must never panic, and a call it
// can decode is answered once: by one frame, the reply's, sent before
// the link's timer ever runs.
func FuzzRMIDecode(f *testing.F) {
	f.Add(encRecord(f, &record{Kind: kindCall, ReqID: 1, Target: "market", Method: "Buy",
		Values: encArgs(f, "Telco", 80.0, 10, "broker")}))
	f.Add(encRecord(f, &record{Kind: kindCall, ReqID: 2, Target: "market", Method: "Sum", Values: encArgs(f, []int{1, 2, 3})}))
	f.Add(encRecord(f, &record{Kind: kindCall, ReqID: 3, Target: "market", Method: "Join", Values: encArgs(f, []string{"a", "b"}, ",")}))
	f.Add(encRecord(f, &record{Kind: kindCall, ReqID: 4, Target: "market", Method: "Quote", Values: encArgs(f, 7)}))
	f.Add(encRecord(f, &record{Kind: kindCall, ReqID: 5, Target: "nobody", Method: "Buy"}))
	f.Add(encRecord(f, &record{Kind: kindResult, ReqID: 6, Values: [][]byte{{1, 2}}}))
	f.Add(encRecord(f, &record{Kind: kindLease, Target: "market"}))
	f.Add(encRecord(f, &record{Kind: kindRelease, Target: "market"}))
	f.Add(encRecord(f, &record{Kind: 99}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})

	tap := &replyTap{}
	c := clock.NewFake(time.Unix(0, 0))
	r := newOwn(tap, c, Options{DGC: DGCPinned})
	defer r.Close()
	if err := r.Bind("market", &fuzzTarget{}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Let the link give up on the last input's reply (its peer is no
		// member), so that what it keeps stays bounded.
		c.Advance(time.Second)
		tap.mu.Lock()
		tap.sent = 0
		tap.mu.Unlock()
		var m record
		call := recordProg.Decode(data, reflect.ValueOf(&m).Elem()) == nil && m.Kind == kindCall
		r.onRecord("peer", data)
		r.calls.Wait()
		tap.mu.Lock()
		defer tap.mu.Unlock()
		if want := map[bool]int{true: 1}[call]; tap.sent != want {
			t.Fatalf("%d frames sent, want %d", tap.sent, want)
		}
	})
}
