package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/netsim"
)

func newPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

func TestSendReceive(t *testing.T) {
	a, b := newPair(t)
	var mu sync.Mutex
	var gotFrom string
	var gotPayload []byte
	b.SetHandler(func(from string, p []byte) {
		mu.Lock()
		defer mu.Unlock()
		gotFrom, gotPayload = from, bytes.Clone(p) // p is valid for the call only
	})
	if err := a.Send(b.Addr(), []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotPayload != nil
	})
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != a.Addr() {
		t.Errorf("from = %q, want %q", gotFrom, a.Addr())
	}
	if string(gotPayload) != "over tcp" {
		t.Errorf("payload = %q", gotPayload)
	}
}

func TestBidirectional(t *testing.T) {
	a, b := newPair(t)
	var fromB, fromA atomic.Int32
	a.SetHandler(func(string, []byte) { fromB.Add(1) })
	b.SetHandler(func(string, []byte) { fromA.Add(1) })
	if err := a.Send(b.Addr(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), []byte("2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return fromA.Load() == 1 && fromB.Load() == 1 })
}

func TestManyMessagesInOrderPerConnection(t *testing.T) {
	a, b := newPair(t)
	const n = 500
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(_ string, p []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(p))
	})
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), []byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if want := fmt.Sprintf("m%04d", i); m != want {
			t.Fatalf("message %d = %q, want %q (TCP stream must preserve order)", i, m, want)
		}
	}
}

func TestLargePayload(t *testing.T) {
	a, b := newPair(t)
	payload := bytes.Repeat([]byte{0xAB}, 1<<20) // 1 MiB
	got := make(chan []byte, 1)
	b.SetHandler(func(_ string, p []byte) { got <- bytes.Clone(p) })
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Error("large payload corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(b.Addr(), make([]byte, maxFrame)); err == nil {
		t.Fatal("expected frame-too-large error")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := newPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("x")); err == nil {
		t.Fatal("send after close should fail")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := b.Addr()
	_ = b.Close()
	if err := a.Send(dead, []byte("x")); err == nil {
		t.Fatal("send to closed peer should eventually fail")
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b := newPair(t)
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	if err := a.Send(b.Addr(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return count.Load() == 1 })

	// Restart b on the same port.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := Listen(addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer b2.Close()
	var count2 atomic.Int32
	b2.SetHandler(func(string, []byte) { count2.Add(1) })

	// The cached connection is dead. The first write may succeed
	// locally (TCP buffers it; the RST arrives later), so the transport
	// is only guaranteed to recover on a subsequent send — it is
	// best-effort by contract, and reliability is layered above.
	// Send until the restarted peer receives something.
	waitFor(t, 5*time.Second, func() bool {
		_ = a.Send(addr, []byte("2"))
		return count2.Load() >= 1
	})
}

func TestConcurrentSenders(t *testing.T) {
	a, b := newPair(t)
	c, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const per = 200
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	var wg sync.WaitGroup
	for _, src := range []*TCP{a, c} {
		wg.Add(1)
		go func(s *TCP) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Send(b.Addr(), []byte("m")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return count.Load() == 2*per })
}

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	wire = hello(wire, "1.2.3.4:5")
	wire = frame(wire, []byte("payload"))
	wire = frame(wire, nil)
	fr := &frameReader{r: bytes.NewReader(wire)}
	from, err := readHello(fr)
	if err != nil || from != "1.2.3.4:5" {
		t.Fatalf("hello = %q, %v", from, err)
	}
	for _, want := range []string{"payload", ""} {
		hello, body, err := fr.readFrame()
		if err != nil || hello || string(body) != want {
			t.Fatalf("frame = hello %v %q %v, want %q", hello, body, err, want)
		}
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsCorruptInput(t *testing.T) {
	read := func(wire []byte) error {
		_, _, err := (&frameReader{r: bytes.NewReader(wire)}).readFrame()
		return err
	}
	// A length over netsim.MaxFrame, one not in its shortest form, and
	// one longer than four bytes.
	for _, tc := range []struct {
		name, want string
		wire       []byte
	}{
		{"over MaxFrame", "invalid frame length", binary.AppendUvarint(nil, netsim.MaxFrame+1)},
		{"not shortest", "shortest form", []byte{0x81, 0x00, 'x'}},
		{"not shortest, three bytes", "shortest form", []byte{0x81, 0x80, 0x00, 'x'}},
		{"five bytes", "longer than 4 bytes", []byte{0x81, 0x80, 0x80, 0x80, 0x00}},
	} {
		if err := read(tc.wire); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// A hello claiming more than maxAddr.
	long := hello(nil, strings.Repeat("a", maxAddr+1))
	if err := read(long); err == nil || !strings.Contains(err.Error(), "hello address") {
		t.Errorf("over-long hello: %v", err)
	}
	// Torn inside the prefix and inside the body: not a clean end.
	whole := frame(nil, bytes.Repeat([]byte{'p'}, 200)) // a two-byte prefix
	for _, cut := range []int{1, 3, 5, len(whole) - 1} {
		if err := read(whole[:cut]); err != io.ErrUnexpectedEOF {
			t.Errorf("frame cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// The first frame of a connection must be a hello with an address.
	if _, err := readHello(&frameReader{r: bytes.NewReader(whole)}); err == nil {
		t.Error("a data frame was taken for a hello")
	}
	if _, err := readHello(&frameReader{r: bytes.NewReader(hello(nil, ""))}); err == nil {
		t.Error("an empty hello was accepted")
	}
}

// shortReader caps its Reads the way a socket hands over a stream in
// pieces: with b = limits[i mod len(limits)], the i-th returns at most
// b*b+1 bytes, from 1 to 64 KiB (no cap with no limits).
type shortReader struct {
	r      io.Reader
	limits []byte
	i      int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(s.limits) > 0 {
		b := int(s.limits[s.i%len(s.limits)])
		if n := b*b + 1; len(p) > n {
			p = p[:n]
		}
		s.i++
	}
	return s.r.Read(p)
}

// FuzzReadFrame feeds the peer-facing frame reader raw bytes in reads
// of fuzzed sizes, the input repeated to more than two receive buffers'
// worth: the reader must never panic, never hand out more than it was
// given, and consume the input exactly as the frames it returned
// account for. Each body must hold its bytes of the input, with no room
// past them to append into, when it is handed out; it is valid until
// the next call only.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(hello(nil, "1.2.3.4:5"), []byte("payload")), []byte{3})
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF}, []byte{})
	f.Add([]byte{0x80, 0x00, 0x02, 0x01, 'a'}, []byte{0, 255})
	f.Add([]byte{}, []byte{})
	f.Add(frame(frame(nil, bytes.Repeat([]byte{1}, 5000)), bytes.Repeat([]byte{2}, readBuffer+1)), []byte{255, 17, 200})
	f.Add([]byte{0x80}, []byte{})                                             // a length cut short
	f.Add([]byte{0x81, 0x00, 'x'}, []byte{1})                                 // not in its shortest form
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}, []byte{})                     // longer than four bytes
	f.Add(binary.AppendUvarint(nil, netsim.MaxFrame+1), []byte{})             // over MaxFrame
	f.Add(hello(frame(hello(nil, "1.2.3.4:5"), []byte("x")), "a"), []byte{2}) // a hello that is not first
	f.Fuzz(func(t *testing.T, data, limits []byte) {
		wire := data
		if len(data) > 0 {
			wire = bytes.Repeat(data, 1+2*readBuffer/len(data))
		}
		fr := &frameReader{r: &shortReader{r: bytes.NewReader(wire), limits: limits}}
		used := 0
		for {
			hello, body, err := fr.readFrame()
			if err != nil {
				if err == io.EOF && used != len(wire) {
					t.Fatalf("clean end after %d of %d bytes", used, len(wire))
				}
				break
			}
			if hello && len(body) > maxAddr {
				t.Fatalf("hello of %d bytes accepted", len(body))
			}
			if cap(body) != len(body) {
				t.Fatalf("a %d-byte body has capacity %d", len(body), cap(body))
			}
			prefix := len(binary.AppendUvarint(nil, uint64(len(body))))
			if hello {
				prefix = helloHeader
			}
			used += prefix + len(body)
			if used > len(wire) {
				t.Fatalf("frames account for %d bytes of a %d-byte input", used, len(wire))
			}
			if !bytes.Equal(body, wire[used-len(body):used]) {
				t.Fatalf("the body at %d differs from the input", used-len(body))
			}
		}
	})
}

// loopReader hands out wire again and again, in reads of at most step
// bytes, so that frames land at every offset of the reader's buffer.
type loopReader struct {
	wire []byte
	at   int
	step int
}

func (l *loopReader) Read(p []byte) (int, error) {
	p = p[:min(len(p), l.step)]
	n := 0
	for n < len(p) {
		k := copy(p[n:], l.wire[l.at:])
		n += k
		l.at = (l.at + k) % len(l.wire)
	}
	return n, nil
}

// TestReadFrameCompactsItsBuffer: frames whose sizes do not divide the
// buffer straddle its end, over and over, so the unread part of one
// moves to the buffer's front; each is handed out whole, from the one
// buffer the reader started with.
func TestReadFrameCompactsItsBuffer(t *testing.T) {
	var wire []byte
	var bodies [][]byte
	for i := range 7 {
		b := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*1234)
		bodies, wire = append(bodies, b), frame(wire, b)
	}
	fr := &frameReader{r: &loopReader{wire: wire, step: 4096 + 7}}
	var first *byte
	for i := range 20 * len(bodies) {
		hello, body, err := fr.readFrame()
		if err != nil || hello {
			t.Fatalf("frame %d: hello %v, %v", i, hello, err)
		}
		if !bytes.Equal(body, bodies[i%len(bodies)]) {
			t.Fatalf("frame %d: %d bytes that are not the %d sent", i, len(body), len(bodies[i%len(bodies)]))
		}
		if first == nil {
			first = &fr.buf[0]
		}
	}
	if len(fr.buf) != readBuffer || &fr.buf[0] != first {
		t.Errorf("the reader's buffer is %d bytes at %p, want the %d it started with at %p", len(fr.buf), &fr.buf[0], readBuffer, first)
	}
}

// TestReadFrameGrowsForALongFrame: a frame longer than the buffer grows
// it, whatever the buffer held of the frames before; the frames after
// it are read into the grown buffer.
func TestReadFrameGrowsForALongFrame(t *testing.T) {
	small := bytes.Repeat([]byte{1}, 700)
	long := make([]byte, 3*readBuffer+5)
	for i := range long {
		long[i] = byte(i)
	}
	var wire []byte
	for range 30 {
		wire = frame(wire, small)
	}
	wire = frame(wire, long)
	for range 30 {
		wire = frame(wire, small)
	}
	fr := &frameReader{r: &shortReader{r: bytes.NewReader(wire), limits: []byte{100, 37}}}
	for i := range 61 {
		_, body, err := fr.readFrame()
		want := small
		if i == 30 {
			want = long
		}
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: %d bytes, %v; want %d bytes as sent", i, len(body), err, len(want))
		}
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if len(fr.buf) < len(long) {
		t.Errorf("the buffer is %d bytes after a %d-byte frame", len(fr.buf), len(long))
	}
}

// TestReadFrameHelloThenFrames: the hello names the sender, and the
// frames behind it, in the same reads, follow whole.
func TestReadFrameHelloThenFrames(t *testing.T) {
	wire := hello(nil, "10.0.0.1:7000")
	for i := range 100 {
		wire = frame(wire, bytes.Repeat([]byte{byte(i)}, i*37))
	}
	fr := &frameReader{r: &shortReader{r: bytes.NewReader(wire), limits: []byte{9, 250}}}
	from, err := readHello(fr)
	if err != nil || from != "10.0.0.1:7000" {
		t.Fatalf("hello = %q, %v", from, err)
	}
	for i := range 100 {
		hello, body, err := fr.readFrame()
		if err != nil || hello || !bytes.Equal(body, bytes.Repeat([]byte{byte(i)}, i*37)) {
			t.Fatalf("frame %d: hello %v, %d bytes, %v", i, hello, len(body), err)
		}
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameEOFInsideAFrame: a connection that ends inside a frame,
// in its prefix or its body, whether the body fits the buffer, straddles
// its end or needs it to grow, is torn, not cleanly closed.
func TestReadFrameEOFInsideAFrame(t *testing.T) {
	lead := frame(nil, bytes.Repeat([]byte{1}, readBuffer-300)) // the next frame straddles the buffer's end
	for _, n := range []int{200, 1000, 2 * readBuffer} {
		whole := frame(slices.Clone(lead), bytes.Repeat([]byte{2}, n))
		for _, cut := range []int{len(lead) + 1, len(lead) + 3, len(lead) + n/2, len(whole) - 1} {
			fr := &frameReader{r: bytes.NewReader(whole[:cut])}
			if _, _, err := fr.readFrame(); err != nil {
				t.Fatalf("the whole first frame: %v", err)
			}
			if _, _, err := fr.readFrame(); err != io.ErrUnexpectedEOF {
				t.Errorf("a %d-byte frame cut %d bytes in: %v, want io.ErrUnexpectedEOF", n, cut-len(lead), err)
			}
		}
	}
}

// TestReadFrameReusesItsBuffer pins the reader's cost once warm: no
// allocation per frame, whatever the frame's size up to the buffer's
// and wherever in the buffer it lands.
func TestReadFrameReusesItsBuffer(t *testing.T) {
	var wire []byte
	for _, n := range []int{150, 1100, 7000, 60, 20000} {
		wire = frame(wire, bytes.Repeat([]byte{7}, n))
	}
	fr := &frameReader{r: &loopReader{wire: wire, step: 1500}}
	for range 50 {
		if _, _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5000, func() {
		if _, _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations per frame, want 0", n)
	}
}

// TestFramesArriveWholeAcrossBufferMoves sends frames over a real
// connection with sizes that land at every offset of the reader's
// buffer, cross its size and reach 1 MiB: each payload the handler is
// given holds what was sent, in order, and has no room to append into.
func TestFramesArriveWholeAcrossBufferMoves(t *testing.T) {
	a, b := newPair(t)
	const frames = 20000
	rng := rand.New(rand.NewPCG(1, 2))
	sent := make([][]byte, frames)
	for i := range sent {
		n := rng.IntN(600)
		switch {
		case i == frames/2:
			n = 1 << 20
		case i%500 == 1:
			n = rng.IntN(3 * readBuffer)
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j*7)
		}
		sent[i] = p
	}
	var got, bad atomic.Int64
	b.SetHandler(func(_ string, p []byte) {
		i := got.Add(1) - 1
		if i >= frames || !bytes.Equal(p, sent[i]) || cap(p) != len(p) {
			bad.Add(1)
		}
	})
	for _, p := range sent {
		if err := a.Send(b.Addr(), p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return got.Load() == frames })
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d of %d payloads were not what was sent, in order", n, frames)
	}
}

// TestReadFrameAllocations pins the reader's cost: a fresh reader
// allocates its buffer, and no frame allocates after it.
func TestReadFrameAllocations(t *testing.T) {
	const frames = 10000
	payload := bytes.Repeat([]byte{7}, 150)
	var wire []byte
	for range frames {
		wire = frame(wire, payload)
	}
	per := allocs.PerRun(5, func() {
		fr := &frameReader{r: bytes.NewReader(wire)}
		for {
			if _, _, err := fr.readFrame(); err != nil {
				return
			}
		}
	}) / frames
	if per > 0.001 {
		t.Errorf("%.4f allocations per 150-byte frame, want at most 0.001", per)
	}
}

// logSink collects the package logger's records.
type logSink struct {
	mu   sync.Mutex
	msgs []string
}

func (s *logSink) Enabled(context.Context, slog.Level) bool { return true }
func (s *logSink) WithAttrs([]slog.Attr) slog.Handler       { return s }
func (s *logSink) WithGroup(string) slog.Handler            { return s }
func (s *logSink) Handle(_ context.Context, r slog.Record) error {
	line := r.Message
	r.Attrs(func(a slog.Attr) bool {
		line += " " + a.Key + "=" + a.Value.String()
		return true
	})
	s.mu.Lock()
	s.msgs = append(s.msgs, line)
	s.mu.Unlock()
	return nil
}

func (s *logSink) contains(sub string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

func captureLog(t *testing.T) *logSink {
	t.Helper()
	sink := &logSink{}
	SetLogger(slog.New(sink))
	t.Cleanup(func() { SetLogger(nil) })
	return sink
}

// expectClosed waits for the transport to close a raw connection.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// A reset, not an EOF, when the transport closed with bytes unread.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection not closed by the transport: %v", err)
	}
}

func TestHelloViolationsCloseTheConnection(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		log  string
		want int32 // frames delivered before the violation
	}{
		{"data frame before hello", frame(nil, []byte("x")), "before hello", 0},
		{"second hello", frame(hello(frame(hello(nil, "peer"), []byte("x")), "peer"), []byte("y")), "second hello", 1},
		{"over-long address", hello(nil, strings.Repeat("a", maxAddr+1)), "hello address", 0},
		{"hello without an address", hello(nil, ""), "without an address", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logs := captureLog(t)
			a, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var got atomic.Int32
			a.SetHandler(func(from string, _ []byte) {
				if from != "peer" {
					t.Errorf("from = %q, want the hello's address", from)
				}
				got.Add(1)
			})
			conn, err := net.Dial("tcp", a.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.wire); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, conn)
			if got.Load() != tc.want {
				t.Errorf("%d frames delivered, want %d", got.Load(), tc.want)
			}
			waitFor(t, time.Second, func() bool { return logs.contains(tc.log) })
		})
	}
}

// rawPeer is a plain TCP listener standing in for a remote transport.
type rawPeer struct {
	ln net.Listener
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return &rawPeer{ln: ln}
}

func (p *rawPeer) addr() string { return p.ln.Addr().String() }

func (p *rawPeer) accept(t *testing.T) net.Conn {
	t.Helper()
	conn, err := p.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestHelloOncePerConnectionAndAgainOnReconnect(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := newRawPeer(t)

	for i := 0; i < 3; i++ {
		if err := a.Send(peer.addr(), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	conn := peer.accept(t)
	want := hello(nil, a.Addr())
	for i := 0; i < 3; i++ {
		want = frame(want, []byte("m"))
	}
	got := make([]byte, len(want))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first connection carried %x (%v), want one hello and three 2-byte frames %x", got, err, want)
	}

	// The peer drops the connection; the transport notices on a later
	// write, dials again and introduces itself again.
	_ = conn.Close()
	second := make(chan net.Conn, 1)
	go func() {
		c, err := peer.ln.Accept()
		if err == nil {
			second <- c
		}
	}()
	var conn2 net.Conn
	waitFor(t, 5*time.Second, func() bool {
		_ = a.Send(peer.addr(), []byte("m"))
		select {
		case conn2 = <-second:
			return true
		default:
			return false
		}
	})
	defer conn2.Close()
	_ = conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if from, err := readHello(&frameReader{r: conn2}); err != nil || from != a.Addr() {
		t.Fatalf("second connection began with %q, %v; want a hello from %s", from, err, a.Addr())
	}
}

// TestFrameLengthIsShortestUvarint: on the socket, a frame's length is a
// uvarint in its shortest form, so a payload under 128 bytes has a
// one-byte prefix and one under 16 KiB a two-byte one. Fails with any
// fixed-width length word.
func TestFrameLengthIsShortestUvarint(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := newRawPeer(t)
	sizes := []struct{ payload, prefix int }{{0, 1}, {1, 1}, {127, 1}, {128, 2}, {16<<10 - 1, 2}, {16 << 10, 3}}
	for i, sz := range sizes {
		if err := a.Send(peer.addr(), bytes.Repeat([]byte{byte(i)}, sz.payload)); err != nil {
			t.Fatal(err)
		}
	}
	conn := peer.accept(t)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if from, err := readHello(&frameReader{r: io.LimitReader(conn, helloHeader+int64(len(a.Addr())))}); err != nil || from != a.Addr() {
		t.Fatalf("hello: %q, %v", from, err)
	}
	for i, sz := range sizes {
		got := make([]byte, sz.prefix+sz.payload)
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		n, k := binary.Uvarint(got)
		if k != sz.prefix || int(n) != sz.payload || !bytes.Equal(got[k:], bytes.Repeat([]byte{byte(i)}, sz.payload)) {
			t.Errorf("a %d-byte payload went with a %d-byte prefix reading %d, want a %d-byte prefix", sz.payload, k, n, sz.prefix)
		}
	}
}

// TestStalledPeerBlocksNobodyElse is the head-of-line test: a peer that
// accepts and never reads fills its socket buffer; sends to another
// peer must go on, and the blocked send must fail at the write
// deadline instead of hanging.
func TestStalledPeerBlocksNobodyElse(t *testing.T) {
	a, b := newPair(t)
	var got atomic.Int32
	b.SetHandler(func(string, []byte) { got.Add(1) })
	stalled := newRawPeer(t)

	var progress atomic.Int64
	blockedErr := make(chan error, 1)
	go func() {
		chunk := make([]byte, 256<<10)
		for {
			if err := a.Send(stalled.addr(), chunk); err != nil {
				blockedErr <- err
				return
			}
			progress.Add(1)
		}
	}()
	_ = stalled.accept(t) // and never read from it

	// The sender is stuck once its counter stops moving.
	last, since := int64(-1), time.Now()
	waitFor(t, 10*time.Second, func() bool {
		if p := progress.Load(); p != last {
			last, since = p, time.Now()
		}
		return time.Since(since) > 200*time.Millisecond
	})

	start := time.Now()
	if err := a.Send(b.Addr(), []byte("through")); err != nil {
		t.Fatalf("send to the healthy peer: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("send to the healthy peer took %v behind a stalled one", d)
	}
	waitFor(t, time.Second, func() bool { return got.Load() == 1 })

	select {
	case err := <-blockedErr:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blocked send failed with %v, want the write deadline", err)
		}
	case <-time.After(writeTimeout + 3*time.Second):
		t.Fatal("send to the stalled peer never returned")
	}
}

// TestSendAndReceiveAllocations pins the per-frame allocations: none to
// send, and none to receive once the connection's buffer exists.
func TestSendAndReceiveAllocations(t *testing.T) {
	a, b := newPair(t)
	payload := bytes.Repeat([]byte{7}, 173)

	sink := newRawPeer(t)
	go func() {
		if conn, err := sink.ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, conn)
			_ = conn.Close()
		}
	}()
	to := sink.addr()
	if err := a.Send(to, payload); err != nil { // dial, hello, size the scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := a.Send(to, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Send: %v allocations per frame, want 0", n)
	}

	const frames = 2000
	var got atomic.Int32
	b.SetHandler(func(string, []byte) { got.Add(1) })
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame(hello(nil, "peer"), payload)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }) // the connection's own set-up is done
	wire := make([]byte, 0, frames*(maxPrefix+len(payload)))
	for i := 0; i < frames; i++ {
		wire = frame(wire, payload)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return got.Load() == frames+1 })
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / frames; per > 0.1 {
		t.Errorf("receive: %.2f allocations per frame, want at most 0.1", per)
	}
}
