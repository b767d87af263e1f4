package multicast

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"govents/internal/netsim"
	"govents/internal/rec"
)

// sendRaw sends payload to one address as the whole body of a frame on
// stream, no protocol record around it: a frame as any peer may inject.
func sendRaw(m *Mux, to, stream string, payload []byte) error {
	s := newStream(stream, 0)
	f, err := newFrame(s, len(payload))
	if err != nil {
		return err
	}
	defer f.release()
	f.b = append(f.b, payload...)
	return m.tr.Send(to, f.prefixed(s, false, 0))
}

// frameRecord returns the record of a frame as a transport is handed it,
// in any of its four forms; a handshake frame has none.
func frameRecord(frame []byte) ([]byte, bool) {
	if len(frame) == 0 {
		return nil, false
	}
	rest := frame[1:]
	switch frame[0] {
	case frameShort, frameNumbered:
		if len(rest) < 4 {
			return nil, false
		}
		rest = rest[4:]
	case frameSpelled, frameIncarnate:
		if len(rest) < 2 || len(rest) < 2+int(binary.BigEndian.Uint16(rest)) {
			return nil, false
		}
		rest = rest[2+int(binary.BigEndian.Uint16(rest)):]
	default:
		return nil, false
	}
	if frame[0] == frameNumbered || frame[0] == frameIncarnate {
		d := rec.Reader{Buf: rest}
		if d.Uvarint(); d.Err != nil {
			return nil, false
		}
		rest = rest[d.Off:]
	}
	return rest, true
}

// decodeFrame decodes the record of a frame as a transport is handed
// it; a handshake frame has none.
func decodeFrame(frame []byte, m *message) error {
	if rec, ok := frameRecord(frame); ok {
		return decodeMessage(rec, m)
	}
	return errors.New("not a record frame")
}

// TestMuxFallbackAndRedeliver: a spelled frame on a stream nobody has
// open runs the fallback, which opens it, and the mux then delivers the
// frame to the new handler; later frames go straight to it.
func TestMuxFallbackAndRedeliver(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")

	var mu sync.Mutex
	var fallbackStreams []string
	var delivered []string
	b.mux.SetFallback(func(stream string) {
		mu.Lock()
		fallbackStreams = append(fallbackStreams, stream)
		mu.Unlock()
		// Lazily register; the mux re-dispatches — the dace pattern.
		b.mux.Handle(stream, func(from string, p []byte) {
			mu.Lock()
			defer mu.Unlock()
			delivered = append(delivered, string(p))
		})
	})

	_ = sendRaw(a.mux, "b", "lazy/stream", []byte("first"))
	net.Settle()
	_ = sendRaw(a.mux, "b", "lazy/stream", []byte("second"))
	net.Settle()

	mu.Lock()
	defer mu.Unlock()
	if len(fallbackStreams) != 1 || fallbackStreams[0] != "lazy/stream" {
		t.Errorf("fallback invocations = %v, want exactly one", fallbackStreams)
	}
	if len(delivered) != 2 || delivered[0] != "first" || delivered[1] != "second" {
		t.Errorf("delivered = %v; the fallback must not lose the first frame", delivered)
	}
}

// TestMuxRedeliverUnknownStreamIsDropped: a frame whose fallback opens
// no stream is dropped, and unconfirmed.
func TestMuxRedeliverUnknownStreamIsDropped(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	tap := newFormTap(must(net.NewEndpoint("b")))
	a, b := newTestNode(t, net, "a"), NewMux(tap)
	calls := 0
	b.SetFallback(func(string) { calls++ })
	_ = sendRaw(a.mux, "b", "ghost", []byte("x"))
	net.Settle()
	if calls != 1 || tap.sent("a", frameKnown) != 0 {
		t.Errorf("the fallback ran %d times and b sent %d known frames; want 1 and none", calls, tap.sent("a", frameKnown))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestMuxUnhandleStopsDelivery(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	var mu sync.Mutex
	n := 0
	b.mux.Handle("s", func(string, []byte) {
		mu.Lock()
		defer mu.Unlock()
		n++
	})
	_ = sendRaw(a.mux, "b", "s", []byte("1"))
	net.Settle()
	b.mux.Unhandle("s")
	_ = sendRaw(a.mux, "b", "s", []byte("2"))
	net.Settle()
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Errorf("delivered %d, want 1", n)
	}
}

// TestMuxMalformedFramesIgnored: a frame too short for a key, a spelled
// frame whose name runs past its end or whose epoch is missing, zero or
// not in its shortest form, a numbered frame whose number is, a
// handshake frame with a trailing byte, a frame of an unknown kind, and
// a short frame whose key is nobody's (a frame of the layout before keys
// reads as one) reach no handler. Only the last is answered, with
// unknown.
func TestMuxMalformedFramesIgnored(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a, _ := net.NewEndpoint("raw")
	var mu sync.Mutex
	var answers [][]byte
	a.SetHandler(func(_ string, p []byte) {
		mu.Lock()
		answers = append(answers, bytes.Clone(p))
		mu.Unlock()
	})
	b := newTestNode(t, net, "b")
	b.mux.Handle("s", func(string, []byte) { t.Error("malformed frame dispatched") })
	key := binary.BigEndian.AppendUint32(nil, streamKey("s"))
	wrong := binary.BigEndian.AppendUint32(nil, streamKey("t"))
	for _, f := range [][]byte{
		{},
		{frameShort},
		append([]byte{frameShort}, key[:3]...),
		{frameSpelled, 0xFF, 0xFF, 's'},
		{frameSpelled, 0, 2, 's'},
		{frameIncarnate, 0, 1, 's'},
		{frameIncarnate, 0, 1, 's', 0, 'x'},
		{frameIncarnate, 0, 1, 's', 0x81, 0x00, 'x'},
		append(append([]byte{frameNumbered}, key...), 0),
		append(append([]byte{frameNumbered}, key...), 0x81, 0x00, 'x'),
		append([]byte{frameKnown}, append(key, 0)...),
		append([]byte{frameKnown}, append(key, 7)...),
		append([]byte{frameUnknown}, append(key, 1, 0)...),
		{frameUnknown},
		{0xFF, 0, 0, 0, 0, 'x'},
		append(append([]byte{frameShort}, wrong...), "x"...)[:3],
	} {
		_ = a.Send("b", f)
	}
	_ = a.Send("b", append([]byte{0, 1, 's'}, "record"...))
	net.Settle()
	mu.Lock()
	defer mu.Unlock()
	if len(answers) != 1 || answers[0][0] != frameUnknown {
		t.Errorf("the malformed frames drew %x, want one unknown frame", answers)
	}
}

func TestMuxStreamNameTooLong(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	long := make([]byte, 0x10001)
	for i := range long {
		long[i] = 's'
	}
	if err := a.mux.sendMessage("a", newStream(string(long), 0), &message{Kind: kindData}); err == nil {
		t.Error("oversized stream name must fail")
	}
}

// frameTap records, per Send, the frame and to whom it goes.
type frameTap struct {
	netsim.Transport
	to     []string
	frames []string
}

func (f *frameTap) Send(to string, frame []byte) error {
	f.to = append(f.to, to)
	f.frames = append(f.frames, string(frame))
	return nil
}

// TestFanOutFramesOnce: a record fanned out goes, in one frame, to every
// destination but self; with no destination but self nothing is framed,
// however long the record. TestMuxSendAllocs pins that the frame is
// built once.
func TestFanOutFramesOnce(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ep, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{Transport: ep}
	m := NewMux(tap)
	msg := message{Kind: kindData, Payload: []byte("m")}
	s := newStream("s", 0)
	if err := m.fanOut([]string{"b", "a", "c", "d"}, "a", s, &msg); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tap.to, ","); got != "b,c,d" {
		t.Errorf("sent to %s, want b,c,d", got)
	}
	var got message
	for _, f := range tap.frames {
		// Nobody confirmed the key: the name is spelled to everyone.
		if err := decodeMessage([]byte(f[spelledHeader+len("s"):]), &got); err != nil || string(got.Payload) != "m" {
			t.Errorf("a destination was sent %q", f)
		}
	}
	tap.to = nil
	huge := message{Kind: kindData, Payload: make([]byte, netsim.MaxFrame)}
	if err := m.fanOut([]string{"a"}, "a", s, &huge); err != nil || len(tap.to) != 0 {
		t.Errorf("a fan-out to self only: %v, %d sends; want nil and none", err, len(tap.to))
	}
	if err := m.fanOut([]string{"a", "b"}, "a", s, &huge); !errors.Is(err, netsim.ErrFrameTooLarge) || len(tap.to) != 0 {
		t.Errorf("an unframeable fan-out: %v, %d sends; want ErrFrameTooLarge and none", err, len(tap.to))
	}
}

// TestMuxSendAllocs pins the cost of a frame: none. A protocol record,
// sent to one destination (sendMessage) or fanned out to several at once
// (fanOut), is framed in a pooled buffer that goes back once
// Transport.Send has returned. A frame too long for the pool to keep
// costs its one buffer, however many destinations it is fanned out to.
func TestMuxSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ep, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(discardTransport{ep})
	payload := bytes.Repeat([]byte{7}, 1200)
	data := message{Kind: kindData, Seq: 70000, Base: 69990, Payload: payload}
	dests := []string{"b", "a", "c", "d"}
	fifo, be := newStream("dace/fifo/some.Class", 1_759_000_000_000_000), newStream("dace/be/some.Class", 0)
	m.open(fifo, nil)
	m.mu.Lock()
	fifo.known["b"] = 3 // a destination that confirmed the stream: short frames
	m.mu.Unlock()
	long := message{Kind: kindData, Payload: make([]byte, 2*maxPooledFrame)}
	for _, tc := range []struct {
		what string
		send func() error
		want float64
	}{
		{"sendMessage", func() error { return m.sendMessage("b", fifo, &data) }, 0},
		{"fanOut", func() error { return m.fanOut(dests, "a", be, &data) }, 0},
		{"fanOut of a long record", func() error { return m.fanOut(dests, "a", be, &long) }, 1},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		}); n != tc.want {
			t.Errorf("%s: %v allocations per frame, want %v", tc.what, n, tc.want)
		}
	}
}

// Handle opens stream, without an incarnation, for h, replacing any
// previous handler: a stream a test reads raw.
func (m *Mux) Handle(stream string, h netsim.Handler) {
	m.open(newStream(stream, 0), func(from string, _ incarnation, record []byte) { h(from, record) })
}

// Unhandle closes the stream.
func (m *Mux) Unhandle(stream string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.streams[stream]; s != nil {
		m.closeLocked(s)
	}
}
