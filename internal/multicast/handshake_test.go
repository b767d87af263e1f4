package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"govents/internal/netsim"
)

// formTap counts, per destination, the record frames an endpoint sends
// in each form, and the handshake frames by kind.
type formTap struct {
	netsim.Transport
	mu    sync.Mutex
	forms map[string][4]int // destination -> frames by first byte
}

func newFormTap(ep netsim.Transport) *formTap {
	return &formTap{Transport: ep, forms: make(map[string][4]int)}
}

func (f *formTap) Send(to string, frame []byte) error {
	if len(frame) > 0 && int(frame[0]) < 4 {
		f.mu.Lock()
		c := f.forms[to]
		c[frame[0]]++
		f.forms[to] = c
		f.mu.Unlock()
	}
	return f.Transport.Send(to, frame)
}

// sent returns how many frames of the given form went to addr.
func (f *formTap) sent(addr string, form byte) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.forms[addr][form]
}

// knows reports whether m sends stream to addr short.
func knows(m *Mux, addr, stream string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name, ok := m.known[peerKey{addr, streamKey(stream)}]
	return ok && name == stream
}

// TestMuxShortFrameOnceKnown: a stream is spelled to a destination until
// its known frame comes back, and short from then on, five bytes in
// front of the record; the receiver confirms each spelled frame once.
// Fails if the receiver never confirms, or the sender never shortens.
func TestMuxShortFrameOnceKnown(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	epA, _ := net.NewEndpoint("a")
	epB, _ := net.NewEndpoint("b")
	tapA, tapB := newFormTap(epA), newFormTap(epB)
	a, b := NewMux(tapA), NewMux(tapB)
	const stream = "dace/fifo/some.Class"
	var mu sync.Mutex
	var got []string
	b.Handle(stream, func(_ string, p []byte) {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
	})
	a.Handle(stream, func(string, []byte) {})
	s := newStream(stream)
	msg := message{Kind: kindData, Payload: []byte("x")}
	if err := a.sendMessage("b", s, &msg); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if !knows(a, "b", stream) {
		t.Fatal("a's first frame drew no known frame from b")
	}
	for range 3 {
		if err := a.sendMessage("b", s, &msg); err != nil {
			t.Fatal(err)
		}
	}
	net.Settle()
	if sp, sh, kn := tapA.sent("b", frameSpelled), tapA.sent("b", frameShort), tapB.sent("a", frameKnown); sp != 1 || sh != 3 || kn != 1 {
		t.Errorf("a sent %d spelled and %d short frames, b %d known; want 1, 3 and 1", sp, sh, kn)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Errorf("b's handler ran %d times, want 4", len(got))
	}
	f, err := messageFrame(s, &msg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	record, _ := encodeMessage(&msg)
	if short := f.b[f.short:]; len(short)-len(record) != shortHeader || !bytes.HasSuffix(short, record) {
		t.Errorf("the short frame %x has %d bytes in front of the record, want %d", short, len(short)-len(record), shortHeader)
	}
}

// dropFirstKnown loses the first known frame its endpoint sends.
type dropFirstKnown struct {
	netsim.Transport
	dropped bool
}

func (d *dropFirstKnown) Send(to string, frame []byte) error {
	if len(frame) > 0 && frame[0] == frameKnown && !d.dropped {
		d.dropped = true
		return nil
	}
	return d.Transport.Send(to, frame)
}

// TestMuxLostKnownIsAnsweredAgain: the receiver's first known frame is
// lost. The sender goes on spelling the stream, the next spelled frame
// draws another known, and the frame after that is short. Fails if a
// receiver answers only the first spelled frame of a stream with known.
func TestMuxLostKnownIsAnsweredAgain(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	epA, _ := net.NewEndpoint("a")
	epB, _ := net.NewEndpoint("b")
	tapA := newFormTap(epA)
	a, b := NewMux(tapA), NewMux(&dropFirstKnown{Transport: epB})
	const stream = "dace/fifo/some.Class"
	a.Handle(stream, func(string, []byte) {})
	b.Handle(stream, func(string, []byte) {})
	msg := message{Kind: kindData, Payload: []byte("x")}
	for i, known := range []bool{false, true, true} {
		if err := a.sendMessage("b", newStream(stream), &msg); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		if knows(a, "b", stream) != known {
			t.Fatalf("after frame %d, a sends the stream short: %v, want %v", i+1, !known, known)
		}
	}
	if sp, sh := tapA.sent("b", frameSpelled), tapA.sent("b", frameShort); sp != 2 || sh != 1 {
		t.Errorf("a sent %d spelled and %d short frames, want 2 and 1", sp, sh)
	}
}

// TestMuxRestartedReceiverIsSpelledAgain: a subscriber restarts at its
// address while the publisher's mux sends it the stream short, and
// creates the stream's group only when a frame names it (the dace
// pattern, Mux.SetFallback). The new mux resolves the key to nothing: it
// answers unknown and drops each short frame, the publisher spells the
// stream again, the fallback creates the group, and FIFO, resending what
// was dropped, delivers every later event exactly once and in order.
// Fails if an unresolved short frame is dropped unanswered, or if
// unknown does not clear the publisher's mark: the resends stay short
// and are never delivered.
func TestMuxRestartedReceiverIsSpelledAgain(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	const stream = "dace/fifo/restart.Class"
	members := []string{"a", "b"}
	epA, _ := net.NewEndpoint("a")
	tap := newFormTap(epA)
	pubMux := NewMux(tap)
	pub := NewFIFO(pubMux, stream, func(string, []byte) {}, fastOpts())
	defer pub.Close()
	pub.SetMembers(members)
	publish := func(from, to int) (want []string) {
		for i := from; i < to; i++ {
			p := fmt.Sprint(i)
			if err := pub.BroadcastTo([]string{"b"}, []byte(p)); err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
		return want
	}

	// The first incarnation has its group from the start.
	epB, _ := net.NewEndpoint("b")
	first := &testNode{mux: NewMux(epB)}
	g := NewFIFO(first.mux, stream, first.record, fastOpts())
	g.SetMembers(members)
	want := publish(0, 5)
	waitFor(t, 5e9, "the first subscriber's deliveries", func() bool { return first.count() == len(want) })
	waitFor(t, 5e9, "the publisher to owe nothing", func() bool { return pub.Outstanding() == 0 })
	if !knows(pubMux, "b", stream) {
		t.Fatal("the publisher does not send the stream short after the handshake")
	}
	spelled := tap.sent("b", frameSpelled)
	_ = g.Close()
	_ = epB.Close()

	// The second makes it when a spelled frame names it.
	epB, _ = net.NewEndpoint("b")
	tapB := newFormTap(epB)
	second := &testNode{mux: NewMux(tapB)}
	var mu sync.Mutex
	var lazy *FIFO
	second.mux.SetFallback(func(name, from string, p []byte) {
		mu.Lock()
		if name == stream && lazy == nil {
			lazy = NewFIFO(second.mux, stream, second.record, fastOpts())
			lazy.SetMembers(members)
		}
		mu.Unlock()
		second.mux.Redeliver(name, from, p)
	})
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		if lazy != nil {
			lazy.Close()
		}
	}()
	want = publish(5, 15)
	waitFor(t, 5e9, "the restarted subscriber's deliveries", func() bool { return second.count() >= len(want) })
	net.Settle()
	if got := second.payloads(); !slices.Equal(got, want) {
		t.Errorf("the restarted subscriber got %q, want %q", got, want)
	}
	if n := tapB.sent("a", frameUnknown); n == 0 {
		t.Error("the restarted subscriber answered no short frame with unknown")
	}
	if tap.sent("b", frameSpelled) == spelled {
		t.Error("the publisher never spelled the stream to the restarted subscriber")
	}
	waitFor(t, 5e9, "the restarted subscriber to confirm the key", func() bool { return knows(pubMux, "b", stream) })
}

// collidingNames returns two stream names with one key, found by a
// birthday search over class names of eight random letters: about
// 33,000 names from this seed.
var collidingNames = sync.OnceValues(func() (string, string) {
	r := rand.New(rand.NewPCG(2, 0))
	seen := make(map[uint32]string)
	for {
		b := []byte("dace/fifo/pkg.")
		for range 8 {
			b = append(b, byte('a'+r.IntN(26)))
		}
		key := streamKey(b)
		if other, ok := seen[key]; ok && other != string(b) {
			return other, string(b)
		}
		seen[key] = string(b)
	}
})

// TestMuxCollidingKeysStaySpelled: one receiver handles two streams
// whose names have the same key, each published by a node of its own,
// in two bursts, the second once the first is in. Neither key is ever
// confirmed, so both stay spelled, and each frame reaches the handler of
// the stream it spells. Fails if a receiver confirms a key two of its
// streams share: the publishers go short in the second burst and the
// receiver cannot tell the streams apart.
func TestMuxCollidingKeysStaySpelled(t *testing.T) {
	n1, n2 := collidingNames()
	if streamKey(n1) != streamKey(n2) || n1 == n2 {
		t.Fatalf("%q and %q do not collide", n1, n2)
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	members := []string{"a", "b", "c"}
	sub := newTestNode(t, net, "b")
	var mu sync.Mutex
	got := map[string][]string{}
	for _, name := range []string{n1, n2} {
		g := NewFIFO(sub.mux, name, func(origin string, p []byte) {
			mu.Lock()
			got[name] = append(got[name], origin+":"+string(p))
			mu.Unlock()
		}, fastOpts())
		g.SetMembers(members)
		defer g.Close()
	}
	var taps []*formTap
	var pubs []*FIFO
	for i, addr := range []string{"a", "c"} {
		ep, _ := net.NewEndpoint(addr)
		tap := newFormTap(ep)
		g := NewFIFO(NewMux(tap), []string{n1, n2}[i], func(string, []byte) {}, fastOpts())
		g.SetMembers(members)
		defer g.Close()
		taps, pubs = append(taps, tap), append(pubs, g)
	}
	const events = 20
	for burst := range 2 {
		for i := burst * events / 2; i < (burst+1)*events/2; i++ {
			for _, g := range pubs {
				if err := g.BroadcastTo([]string{"b"}, []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, 5e9, "the burst at the receiver", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got[n1]) >= (burst+1)*events/2 && len(got[n2]) >= (burst+1)*events/2
		})
		net.Settle()
	}
	mu.Lock()
	defer mu.Unlock()
	for i, name := range []string{n1, n2} {
		var want []string
		for k := range events {
			want = append(want, fmt.Sprintf("%s:%d", []string{"a", "c"}[i], k))
		}
		if !slices.Equal(got[name], want) {
			t.Errorf("%s delivered %q, want %q", name, got[name], want)
		}
		if short := taps[i].sent("b", frameShort); short != 0 {
			t.Errorf("the publisher of %s sent %d short frames to a receiver of two streams with its key", name, short)
		}
	}
}

// recordTransport keeps a copy of every frame it is given to send.
type recordTransport struct {
	mu   sync.Mutex
	sent [][]byte
}

func (r *recordTransport) Addr() string              { return "self" }
func (r *recordTransport) SetHandler(netsim.Handler) {}
func (r *recordTransport) Close() error              { return nil }
func (r *recordTransport) Send(_ string, b []byte) error {
	r.mu.Lock()
	r.sent = append(r.sent, bytes.Clone(b))
	r.mu.Unlock()
	return nil
}

// FuzzMuxFrame feeds the peer-facing frame decoder anything. It never
// panics; a short frame reaches only the one handler registered under
// its key, and only when no other name has that key; a spelled frame
// reaches only the handler of the name it spells, or the fallback with
// that name, and only when the key it carries is the name's; a known
// frame is answered only to a spelled frame that reached a handler, an
// unknown one only to a short frame that reached none.
func FuzzMuxFrame(f *testing.F) {
	c1, c2 := collidingNames()
	names := []string{"s", "dace/fifo/some.Class", c1, c2}
	short := func(name string, body string) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{frameShort}, streamKey(name)), body...)
	}
	spelled := func(name string, body string) []byte {
		b := binary.BigEndian.AppendUint16([]byte{frameSpelled}, uint16(len(name)))
		return append(append(b, name...), short(name, body)...)
	}
	for _, name := range append(names, "unhandled", "") {
		f.Add(short(name, "body"))
		f.Add(spelled(name, "body"))
		f.Add(binary.BigEndian.AppendUint32([]byte{frameKnown}, streamKey(name)))
		f.Add(binary.BigEndian.AppendUint32([]byte{frameUnknown}, streamKey(name)))
	}
	f.Add(short("s", "")[:3])                                                  // a truncated key
	f.Add(spelled("s", "x")[:5])                                               // a spelled frame cut short
	f.Add(append(spelled("s", "x")[:4], short("dace/fifo/some.Class", "")...)) // a key that is another name's
	f.Add([]byte{frameSpelled, 0xFF, 0xFF, 's'})                               // a name longer than the frame
	f.Add(append([]byte{0, 1, 's'}, "record"...))                              // the layout before keys
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &recordTransport{}
		m := NewMux(tr)
		var hit []string
		var body []byte
		for _, name := range names {
			m.Handle(name, func(_ string, p []byte) {
				hit, body = append(hit, name), p
			})
		}
		m.SetFallback(func(stream, _ string, p []byte) {
			hit, body = append(hit, "fallback:"+stream), p
		})
		m.dispatch("peer", data)

		var want []string
		var wantBody []byte
		var answer byte = 0xFF
		switch {
		case len(data) >= shortHeader && data[0] == frameShort:
			key := binary.BigEndian.Uint32(data[1:])
			var under []string
			for _, name := range names {
				if streamKey(name) == key {
					under = append(under, name)
				}
			}
			if len(under) == 1 {
				want, wantBody = under, data[shortHeader:]
			} else {
				answer = frameUnknown
			}
		case len(data) >= 3 && data[0] == frameSpelled:
			n := int(binary.BigEndian.Uint16(data[1:]))
			if len(data) < spelledHeader+n || data[3+n] != frameShort ||
				binary.BigEndian.Uint32(data[4+n:]) != streamKey(data[3:3+n]) {
				break
			}
			name := string(data[3 : 3+n])
			wantBody = data[spelledHeader+n:]
			if !slices.Contains(names, name) {
				want = []string{"fallback:" + name}
				break
			}
			want = []string{name}
			if name != c1 && name != c2 {
				answer = frameKnown
			}
		}
		if !slices.Equal(hit, want) || !bytes.Equal(body, wantBody) {
			t.Fatalf("frame %x reached %q with %x, want %q with %x", data, hit, body, want, wantBody)
		}
		var answers []byte
		for _, b := range tr.sent {
			answers = append(answers, b[0])
		}
		if (answer == 0xFF) != (len(answers) == 0) || len(answers) > 1 || (len(answers) == 1 && answers[0] != answer) {
			t.Fatalf("frame %x was answered with %v, want kind %d", data, tr.sent, answer)
		}
	})
}
