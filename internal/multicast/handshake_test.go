package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"govents/internal/durable"
	"govents/internal/netsim"
)

// formTap counts, per destination, the record frames an endpoint sends
// in each form, and the handshake frames by kind.
type formTap struct {
	netsim.Transport
	mu    sync.Mutex
	forms map[string][6]int // destination -> frames by first byte
}

func newFormTap(ep netsim.Transport) *formTap {
	return &formTap{Transport: ep, forms: make(map[string][6]int)}
}

func (f *formTap) Send(to string, frame []byte) error {
	if len(frame) > 0 && int(frame[0]) < 6 {
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
	s := m.streams[stream]
	if s == nil {
		return false
	}
	_, ok := s.known[addr]
	return ok
}

// number returns the number to gave s's epoch, or 0 if it has confirmed
// none: the one an acknowledgement from it must name.
func number(m *Mux, s *stream, to string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return s.known[to]
}

// opened returns the stream m has open under name.
func opened(m *Mux, name string) *stream {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.streams[name]
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
	s := opened(a, stream)
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
	if short := f.prefixed(s, true, 0); len(short)-len(record) != shortHeader || !bytes.HasSuffix(short, record) {
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
		if err := a.sendMessage("b", opened(a, stream), &msg); err != nil {
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
// The stream is numbered, so the restarted receiver gives the
// publisher's incarnation a number anew. Fails if an unresolved short
// frame is dropped unanswered, or if unknown does not clear the
// publisher's mark: the resends stay short and are never delivered.
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
	spelled := tap.sent("b", frameIncarnate)
	_ = g.Close()
	_ = epB.Close()

	// The second makes it when a spelled frame names it.
	epB, _ = net.NewEndpoint("b")
	tapB := newFormTap(epB)
	second := &testNode{mux: NewMux(tapB)}
	var mu sync.Mutex
	var lazy *FIFO
	second.mux.SetFallback(func(name string) {
		mu.Lock()
		if name == stream && lazy == nil {
			lazy = NewFIFO(second.mux, stream, second.record, fastOpts())
			lazy.SetMembers(members)
		}
		mu.Unlock()
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
	if tap.sent("b", frameIncarnate) == spelled {
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

// TestMuxCollidingKeysStaySpelled: one receiver handles two best-effort
// streams whose names have the same key, each published by a node of
// its own, in two bursts, the second once the first is in. A stream without an
// incarnation is resolved by its key alone, so neither key is ever
// confirmed, both stay spelled, and each frame reaches the handler of
// the stream it spells (the network keeps no order, and best effort
// restores none). Fails if a receiver confirms a key two of its streams
// share: the publishers go short in the second burst and the receiver
// cannot tell the streams apart.
func TestMuxCollidingKeysStaySpelled(t *testing.T) {
	taps := collide(t, []string{"a", "c"}, false, func(m *Mux, name string, deliver Deliver) Group { return NewBestEffort(m, name, deliver) })
	for addr, tap := range taps {
		if short := tap.sent("b", frameShort); short != 0 {
			t.Errorf("%s sent %d short frames to a receiver of two streams with one key", addr, short)
		}
	}
}

// TestMuxCollidingNumberedKeysGoShort: the same with FIFO streams, which
// are numbered, both published by one node. The receiver numbers incarnations per origin and key, so
// the two streams' incarnations get numbers of their own, 1 and 2, and a
// short frame's (key, number) names one of them: the publisher goes
// short in the second burst, and each frame still reaches its own
// stream. Fails if numbers are given per stream rather than per key
// (both are 1, and one stream's frames reach the other), or if a
// colliding numbered stream is never confirmed (no short frame).
func TestMuxCollidingNumberedKeysGoShort(t *testing.T) {
	taps := collide(t, []string{"a", "a"}, true, func(m *Mux, name string, deliver Deliver) Group { return NewFIFO(m, name, deliver, fastOpts()) })
	if short := taps["a"].sent("b", frameNumbered); short == 0 {
		t.Error("the publisher sent no short frame to a receiver that numbered its incarnations")
	}
}

// collide runs a receiver b of the two colliding streams, published by
// the nodes at pubAddrs, for two bursts of events, checks that each
// stream delivered its events once, and in order if ordered, and returns
// the publishers' taps.
func collide(t *testing.T, pubAddrs []string, ordered bool, newGroup func(m *Mux, name string, deliver Deliver) Group) map[string]*formTap {
	t.Helper()
	n1, n2 := collidingNames()
	if streamKey(n1) != streamKey(n2) || n1 == n2 {
		t.Fatalf("%q and %q do not collide", n1, n2)
	}
	net := netsim.New(netsim.Config{})
	t.Cleanup(func() { net.Close() })
	members := append([]string{"b"}, pubAddrs...)
	sub := newTestNode(t, net, "b")
	taps, muxes := map[string]*formTap{}, map[string]*Mux{}
	for _, addr := range pubAddrs {
		if taps[addr] == nil {
			ep, _ := net.NewEndpoint(addr)
			taps[addr] = newFormTap(ep)
			muxes[addr] = NewMux(taps[addr])
		}
	}
	var mu sync.Mutex
	got := map[string][]string{}
	var pubs []Group
	for k, name := range []string{n1, n2} {
		g := newGroup(sub.mux, name, func(origin string, p []byte) {
			mu.Lock()
			got[name] = append(got[name], origin+":"+string(p))
			mu.Unlock()
		})
		g.SetMembers(members)
		t.Cleanup(func() { g.Close() })
		p := newGroup(muxes[pubAddrs[k]], name, func(string, []byte) {})
		p.SetMembers(members)
		t.Cleanup(func() { p.Close() })
		pubs = append(pubs, p)
	}
	const events = 20
	for burst := range 2 {
		for i := burst * events / 2; i < (burst+1)*events/2; i++ {
			for k, g := range pubs {
				if err := g.(interface {
					BroadcastTo([]string, []byte) error
				}).BroadcastTo([]string{"b"}, []byte(fmt.Sprint(k, "/", i))); err != nil {
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
	for k, name := range []string{n1, n2} {
		var want []string
		for i := range events {
			want = append(want, fmt.Sprint(pubAddrs[k], ":", k, "/", i))
		}
		if !ordered {
			slices.Sort(got[name])
			slices.Sort(want)
		}
		if !slices.Equal(got[name], want) {
			t.Errorf("%s delivered %q, want %q", name, got[name], want)
		}
	}
	return taps
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

// FuzzMuxFrame feeds the peer-facing frame decoder anything, after the
// peer has spelled the one numbered stream with epoch 5, which the mux
// numbered 1. It never panics. A short frame reaches only the one
// handler registered under its key, and only when no other name has
// that key; a numbered one only the numbered stream, and only with its
// key and the number 1, and hands it epoch 5. A spelled frame reaches
// only the handler of the name it spells, or the fallback with that
// name; spelling the numbered stream with an epoch below 5 reaches
// nothing, and one above 5 gets the number 2. A known frame is answered
// only to a spelled frame that reached a handler, with the epoch and
// number on a numbered frame; an unknown one only to a short frame that
// reached none, with the number it carried.
func FuzzMuxFrame(f *testing.F) {
	c1, c2 := collidingNames()
	const numbered = "dace/fifo/some.Class"
	names := []string{"s", numbered, c1, c2}
	short := func(name string, body string) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{frameShort}, streamKey(name)), body...)
	}
	spelled := func(name string, body string) []byte {
		b := binary.BigEndian.AppendUint16([]byte{frameSpelled}, uint16(len(name)))
		return append(append(b, name...), body...)
	}
	shortNum := func(name string, num uint64, body string) []byte {
		b := binary.BigEndian.AppendUint32([]byte{frameNumbered}, streamKey(name))
		return append(binary.AppendUvarint(b, num), body...)
	}
	incarnate := func(name string, epoch uint64, body string) []byte {
		b := binary.BigEndian.AppendUint16([]byte{frameIncarnate}, uint16(len(name)))
		return append(binary.AppendUvarint(append(b, name...), epoch), body...)
	}
	for _, name := range append(names, "unhandled", "") {
		f.Add(short(name, "body"))
		f.Add(spelled(name, "body"))
		f.Add(binary.BigEndian.AppendUint32([]byte{frameKnown}, streamKey(name)))
		f.Add(binary.BigEndian.AppendUint32([]byte{frameUnknown}, streamKey(name)))
	}
	f.Add(short("s", "")[:3])                     // a truncated key
	f.Add(spelled("s", "x")[:2])                  // a spelled frame cut short
	f.Add(incarnate("s", 5, "x")[:5])             // an epoch missing
	f.Add([]byte{frameSpelled, 0xFF, 0xFF, 's'})  // a name longer than the frame
	f.Add(append([]byte{0, 1, 's'}, "record"...)) // the layout before keys
	for _, num := range []uint64{0, 1, 2, 300} {
		f.Add(shortNum(numbered, num, "body"))
		f.Add(shortNum("s", num, "body"))
	}
	for _, epoch := range []uint64{0, 4, 5, 6} {
		f.Add(incarnate(numbered, epoch, "body"))
		f.Add(incarnate(c1, epoch, "body"))
	}
	f.Add(append(shortNum(numbered, 1, "")[:5], 0x81, 0x00))                                                                        // a number not in its shortest form
	f.Add(binary.AppendUvarint(binary.AppendUvarint(binary.BigEndian.AppendUint32([]byte{frameKnown}, streamKey(numbered)), 7), 1)) // known with a number
	f.Add(binary.AppendUvarint(binary.BigEndian.AppendUint32([]byte{frameUnknown}, streamKey(numbered)), 1))                        // unknown with a number
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &recordTransport{}
		m := NewMux(tr)
		var hit []string
		var body []byte
		var got incarnation
		for _, name := range names {
			epoch := uint64(0)
			if name == numbered {
				epoch = 9
			}
			m.open(newStream(name, epoch), func(_ string, in incarnation, p []byte) {
				hit, body, got = append(hit, name), p, in
			})
		}
		m.SetFallback(func(stream string) { hit = append(hit, "fallback:"+stream) })
		m.dispatch("peer", incarnate(numbered, 5, ""))
		hit, body, got, tr.sent = nil, nil, incarnation{}, nil
		m.dispatch("peer", data)

		var want []string
		var wantBody []byte
		var wantIn incarnation
		var answer []byte // the handshake frame the peer is owed, if any
		keyed := func(kind byte, key uint32, nums ...uint64) []byte {
			b := binary.BigEndian.AppendUint32([]byte{kind}, key)
			for _, n := range nums {
				if n != 0 {
					b = binary.AppendUvarint(b, n)
				}
			}
			return b
		}
		minimal := func(b []byte) (uint64, int) {
			v, n := binary.Uvarint(b)
			if n <= 0 || (n > 1 && b[n-1] == 0) {
				return 0, 0
			}
			return v, n
		}
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
				answer = keyed(frameUnknown, key)
			}
		case len(data) >= shortHeader && data[0] == frameNumbered:
			key := binary.BigEndian.Uint32(data[1:])
			num, n := minimal(data[shortHeader:])
			switch {
			case n == 0 || num == 0:
			case key == streamKey(numbered) && num == 1:
				want, wantBody, wantIn = []string{numbered}, data[shortHeader+n:], incarnation{5, 1}
			default:
				answer = keyed(frameUnknown, key, num)
			}
		case len(data) >= 3 && (data[0] == frameSpelled || data[0] == frameIncarnate):
			n := int(binary.BigEndian.Uint16(data[1:]))
			if len(data) < spelledHeader+n {
				break
			}
			name, rest := string(data[3:3+n]), data[3+n:]
			var epoch uint64
			if data[0] == frameIncarnate {
				k := 0
				if epoch, k = minimal(rest); k == 0 || epoch == 0 {
					break
				}
				rest = rest[k:]
			}
			if !slices.Contains(names, name) {
				want = []string{"fallback:" + name}
				break
			}
			switch {
			case epoch == 0:
				want, wantBody = []string{name}, rest
				if name != c1 && name != c2 {
					answer = keyed(frameKnown, streamKey(name))
				}
			case name == numbered && epoch < 5:
			default:
				wantIn = incarnation{epoch, 1}
				if name == numbered && epoch > 5 {
					wantIn.num = 2
				}
				want, wantBody = []string{name}, rest
				answer = keyed(frameKnown, streamKey(name), epoch, wantIn.num)
			}
		}
		if !slices.Equal(hit, want) || !bytes.Equal(body, wantBody) || (want != nil && got != wantIn) {
			t.Fatalf("frame %x reached %q with %x from %+v, want %q with %x from %+v", data, hit, body, got, want, wantBody, wantIn)
		}
		if (answer == nil) != (len(tr.sent) == 0) || len(tr.sent) > 1 || (answer != nil && !bytes.Equal(tr.sent[0], answer)) {
			t.Fatalf("frame %x was answered with %x, want %x", data, tr.sent, answer)
		}
	})
}

// holdKnown holds back every known frame its endpoint sends by a few
// milliseconds, so that what the endpoint sends right behind one, the
// acknowledgement of the frame it answers, arrives first.
type holdKnown struct{ netsim.Transport }

func (h holdKnown) Send(to string, frame []byte) error {
	if len(frame) > 0 && frame[0] == frameKnown {
		held := append([]byte(nil), frame...)
		time.AfterFunc(5*time.Millisecond, func() { _ = h.Transport.Send(to, held) })
		return nil
	}
	return h.Transport.Send(to, frame)
}

// TestMuxAckOvertakingKnownIsKept: the subscriber's known frame is held
// back, so the acknowledgement of the publisher's first data frame
// always arrives before the number it names. The publisher keeps the
// acknowledgement and applies it when known brings that number: on a
// loss-free network the event's data frame is sent exactly once, on a
// FIFO stream and on a certified one. Fails if an acknowledgement that
// overtakes known is thrown away: the frame goes again a
// RetransmitInterval later.
func TestMuxAckOvertakingKnownIsKept(t *testing.T) {
	for _, class := range []string{"fifo", "certified"} {
		t.Run(class, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			pub, tap := newTapNode(t, net, "pub")
			ep, err := net.NewEndpoint("sub")
			if err != nil {
				t.Fatal(err)
			}
			sub := &testNode{mux: NewMux(holdKnown{ep})}
			opts, clk := fakeOpts()
			var gp, gs Group
			if class == "fifo" {
				gp, gs = NewFIFO(pub.mux, "cls", pub.record, opts), NewFIFO(sub.mux, "cls", sub.record, opts)
			} else {
				gp = NewCertified(pub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), pub.record, opts)
				gs = NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, opts)
			}
			defer gp.Close()
			defer gs.Close()
			gp.SetMembers([]string{"sub"})
			if err := gp.Broadcast([]byte("m")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "the delivery and the known frame behind it", func() bool {
				return sub.count() == 1 && number(pub.mux, opened(pub.mux, "cls"), "sub") != 0
			})
			advance(net, clk, 3*opts.RetransmitInterval) // a resend would have gone by now
			if n := tap.dataTo("sub"); n != 1 {
				t.Errorf("%d data frames sent for one event, want 1", n)
			}
		})
	}
}
