package rmi

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"

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

// replyTap is a transport that keeps what the runtime sends.
type replyTap struct {
	mu   sync.Mutex
	sent [][]byte
}

func (*replyTap) Addr() string              { return "server" }
func (*replyTap) SetHandler(netsim.Handler) {}
func (*replyTap) Close() error              { return nil }
func (r *replyTap) Send(_ string, p []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = append(r.sent, bytes.Clone(p))
	return nil
}

// gobMsg is m as a peer sends it.
func gobMsg(t testing.TB, m *wireMsg) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobArgs encodes each argument as a call carries it.
func gobArgs(t testing.TB, args ...any) [][]byte {
	var out [][]byte
	for _, a := range args {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(a); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzRMIDecode feeds the runtime's message handler, the decoder a
// peer's bytes reach, raw input: calls on a bound object (a variadic
// method among them), results for calls nobody made, lease traffic, and
// garbage. It must never panic, and a call it can decode is answered.
func FuzzRMIDecode(f *testing.F) {
	f.Add(gobMsg(f, &wireMsg{Kind: kindCall, ReqID: "r1", Target: "market", Method: "Buy",
		Args: gobArgs(f, "Telco", 80.0, 10, "broker")}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindCall, ReqID: "r2", Target: "market", Method: "Sum", Args: gobArgs(f, []int{1, 2, 3})}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindCall, ReqID: "r3", Target: "market", Method: "Join", Args: gobArgs(f, []string{"a", "b"}, ",")}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindCall, ReqID: "r4", Target: "market", Method: "Quote", Args: gobArgs(f, 7)}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindCall, ReqID: "r5", Target: "nobody", Method: "Buy"}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindResult, ReqID: "r6", Results: [][]byte{{1, 2}}}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindAttach, Target: "market", Client: "c"}))
	f.Add(gobMsg(f, &wireMsg{Kind: kindRelease, Target: "market", Client: "c"}))
	f.Add(gobMsg(f, &wireMsg{Kind: 99}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})

	tap := &replyTap{}
	r := New(tap, Options{DGC: DGCPinned})
	defer r.Close()
	if err := r.Bind("market", &fuzzTarget{}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tap.mu.Lock()
		tap.sent = tap.sent[:0]
		tap.mu.Unlock()
		var m wireMsg
		call := gob.NewDecoder(bytes.NewReader(data)).Decode(&m) == nil && m.Kind == kindCall
		r.onMessage("peer", data)
		tap.mu.Lock()
		defer tap.mu.Unlock()
		if call && len(tap.sent) != 1 {
			t.Fatalf("a call was answered %d times, want once", len(tap.sent))
		}
	})
}
