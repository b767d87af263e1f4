// Package transport implements a real TCP transport satisfying the
// netsim.Transport interface, used by the standalone broker binary and
// by integration tests that exercise the stack over actual sockets.
//
// A transport keeps one outbound connection per destination, dialed on
// the first send and kept open, and reads from every connection its
// listener accepts. The two directions between a pair of nodes are
// separate connections: nothing is ever written on an accepted one.
//
// Every frame on a connection is a prefix and a body. A data frame's
// prefix is the payload's length as a uvarint in its shortest form: one
// byte below 128 bytes, two below 16 KiB, and at most four up to
// netsim.MaxFrame. The first frame is the hello, whose body is the
// sender's listen address, which names the sender of every frame that
// follows; its prefix is the bytes 0x80 0x00, the two-byte spelling of
// zero that no shortest uvarint takes, then the address's length as two
// bytes big-endian. A data frame before the hello, a second hello, a
// hello longer than maxAddr, a length not in its shortest form, one
// longer than four bytes or one over netsim.MaxFrame makes the reader
// log and close the connection. See "Link protocol" in the govents
// package documentation.
//
// A connection's reader reads the socket into one buffer of its own,
// 32 KiB to start with, and hands each payload to the handler as a
// slice of it, so a received frame costs no allocation and no copy. The
// payload is valid for the handler's call only, and read-only: the
// reader then moves what it has read of the next frames over it. A
// handler copies whatever it keeps (netsim.Handler).
//
// Each destination has its own lock, so a peer that stops reading
// stalls the senders to that peer only, and only until writeTimeout
// fails the write and drops the connection. The transport is
// best-effort like the simulated network — reliability is layered above
// by the multicast protocols.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/netsim"
)

// pkgLogger receives transport diagnostics that have no error-return
// path to the application — torn frames and protocol violations on
// inbound connections. Package-level because accepted connections have
// no per-instance configuration hook. Default: discard.
var pkgLogger atomic.Pointer[slog.Logger]

// SetLogger installs the package's diagnostics logger (nil restores the
// discarding default). Safe for concurrent use.
func SetLogger(l *slog.Logger) {
	if l == nil {
		pkgLogger.Store(nil)
		return
	}
	pkgLogger.Store(l)
}

// logger returns the installed logger or a discarding one.
func logger() *slog.Logger {
	if l := pkgLogger.Load(); l != nil {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

const (
	// maxFrame bounds a single frame, prefix included (16 MiB), to stop
	// a corrupted length from allocating unbounded memory. The payload's
	// share is netsim.MaxFrame, the bound every transport keeps.
	maxFrame = netsim.MaxFrame + maxPrefix
	// maxPrefix is the longest data frame prefix: netsim.MaxFrame is a
	// four-byte uvarint.
	maxPrefix = 4
	// helloHeader is a hello's prefix: 0x80, 0x00 and the address's
	// length as two bytes.
	helloHeader = 4
	// maxAddr bounds the address a hello may carry: a DNS name, a colon
	// and a port fit with room to spare.
	maxAddr = 512

	// dialTimeout bounds connection establishment and writeTimeout one
	// frame's write: a peer that is unreachable, or that has stopped
	// reading long enough for its socket buffer to fill, costs a sender
	// to it at most this long per Send and nobody else anything.
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second

	// readBuffer is a connection's receive buffer to start with: many
	// small frames arrive per read, and 32 KiB is the largest
	// small-object size class, so no room is lost to rounding. A longer
	// frame grows it.
	readBuffer = 32 << 10
	// maxScratch is the largest write buffer a peer keeps between sends.
	maxScratch = 64 << 10
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// TCP is a netsim.Transport over real TCP sockets.
type TCP struct {
	ln net.Listener
	// addr is ln.Addr().String(), rendered once: every hello carries it.
	addr string

	handler atomic.Pointer[netsim.Handler]

	mu     sync.Mutex
	peers  map[string]*peer      // destination address -> its outbound side
	conns  map[net.Conn]struct{} // every open connection, either direction, for Close
	closed bool

	wg sync.WaitGroup
}

// peer is the outbound side of one destination. Its lock serialises the
// dial and the writes to that destination and nothing else.
type peer struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn // nil until dialed, and again after a failed write
	scratch []byte   // header and payload joined for one Write; reused
}

var _ netsim.Transport = (*TCP)(nil)

// Listen starts a TCP transport bound to addr (e.g. "127.0.0.1:0").
// The effective address, including the kernel-chosen port, is available
// from Addr.
func Listen(addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		ln:    ln,
		addr:  ln.Addr().String(),
		peers: make(map[string]*peer),
		conns: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements netsim.Transport.
func (t *TCP) Addr() string { return t.addr }

// SetHandler implements netsim.Transport. The payload a handler is given
// is a slice of its connection's receive buffer: valid for the call
// only, since the connection's next frames are read into the same
// buffer, and not to be written to. A handler copies what it keeps.
func (t *TCP) SetHandler(h netsim.Handler) {
	if h == nil {
		t.handler.Store(nil)
		return
	}
	t.handler.Store(&h)
}

// Send implements netsim.Transport. The first send to a destination
// dials a connection, introduces this transport on it with a hello and
// keeps it for subsequent sends; a send on a broken connection drops it
// and retries once on a fresh one. A write that times out is not
// retried: the peer is not reading. Send does not keep payload.
func (t *TCP) Send(to string, payload []byte) error {
	if len(payload) > netsim.MaxFrame {
		return fmt.Errorf("transport: %w (%d bytes)", netsim.ErrFrameTooLarge, len(payload))
	}
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.conn != nil
	err = t.write(p, payload)
	if err != nil && kept && !errors.Is(err, os.ErrDeadlineExceeded) {
		err = t.write(p, payload) // the kept connection had died since the last send
	}
	return err
}

// peer returns the outbound side of a destination, creating it on first
// use.
func (t *TCP) peer(to string) (*peer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	p := t.peers[to]
	if p == nil {
		p = &peer{addr: to}
		t.peers[to] = p
	}
	return p, nil
}

// write sends one data frame on p's connection, dialing it first if
// there is none. Any failure drops the connection, since a frame may
// have been written in part. The caller holds p.mu.
func (t *TCP) write(p *peer, payload []byte) error {
	if p.conn == nil {
		if err := t.dial(p); err != nil {
			return err
		}
	}
	buf := frame(p.scratch[:0], payload)
	if cap(buf) <= maxScratch {
		p.scratch = buf
	}
	err := p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		_, err = p.conn.Write(buf)
	}
	if err != nil {
		t.forget(p.conn)
		p.conn = nil
		return fmt.Errorf("transport: send to %s: %w", p.addr, err)
	}
	return nil
}

// dial connects p and introduces this transport with a hello. The
// caller holds p.mu.
func (t *TCP) dial(p *peer) error {
	conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", p.addr, err)
	}
	if !t.track(conn) {
		return ErrClosed
	}
	err = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		_, err = conn.Write(hello(nil, t.addr))
	}
	if err != nil {
		t.forget(conn)
		return fmt.Errorf("transport: hello to %s: %w", p.addr, err)
	}
	p.conn = conn
	return nil
}

// frame appends a data frame, body's length and body, to dst.
func frame(dst, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// hello appends a hello naming addr to dst.
func hello(dst []byte, addr string) []byte {
	dst = binary.BigEndian.AppendUint16(append(dst, 0x80, 0x00), uint16(len(addr)))
	return append(dst, addr...)
}

// track registers an open connection so that Close can reach it; on a
// closed transport it closes the connection and reports false.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// forget closes a connection and drops it from Close's reach.
func (t *TCP) forget(conn net.Conn) {
	_ = conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Close implements netsim.Transport. Closing the connections is also
// what releases a sender blocked in a write.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for c := range t.conns {
		_ = c.Close()
	}
	clear(t.conns)
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(conn) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop hands the frames of one accepted connection to the handler,
// under the sender address its hello announced.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.forget(conn)
	fr := &frameReader{r: conn}
	from, err := readHello(fr)
	for err == nil {
		var hello bool
		var payload []byte
		if hello, payload, err = fr.readFrame(); err != nil {
			break
		}
		if hello {
			err = errors.New("transport: second hello on a connection")
			break
		}
		if h := t.handler.Load(); h != nil {
			(*h)(from, payload)
		}
	}
	// Clean close (EOF between frames, or our own Close tearing the
	// socket down) is the normal end of a connection; anything else — a
	// torn frame, a corrupt length, a broken hello — is a peer or
	// network anomaly worth surfacing.
	if err != io.EOF && !errors.Is(err, net.ErrClosed) {
		logger().Warn("transport: closing inbound connection on bad frame",
			"remote", conn.RemoteAddr().String(), "err", err)
	}
}

// readHello reads a connection's first frame, which must be a hello,
// and returns the sender address it carries.
func readHello(fr *frameReader) (string, error) {
	hello, addr, err := fr.readFrame()
	switch {
	case err != nil:
		return "", err
	case !hello:
		return "", errors.New("transport: data frame before hello")
	case len(addr) == 0:
		return "", errors.New("transport: hello without an address")
	}
	return string(addr), nil
}

// frameReader reads one connection's frames into one buffer and hands
// each body out as a slice of it, capacity clipped, valid until the
// next call: the kernel's copy into the buffer is the only one. When
// the buffer's tail cannot hold the next frame, the unread bytes move
// to its front, and a frame longer than the whole buffer grows it: the
// buffer never shrinks, and no other is allocated.
type frameReader struct {
	r     io.Reader
	buf   []byte
	start int // the first unread byte of buf
	end   int // the end of what has been read into buf
}

// readFrame reads one frame: a hello's address or a data frame's
// payload, valid until the next call. It returns io.EOF only at a frame
// boundary.
func (fr *frameReader) readFrame() (hello bool, body []byte, err error) {
	n, hello, err := fr.prefix()
	switch {
	case err != nil:
		if err == io.EOF && fr.end > fr.start {
			err = io.ErrUnexpectedEOF
		}
		return false, nil, err
	case hello && n > maxAddr:
		return false, nil, fmt.Errorf("transport: hello address of %d bytes exceeds %d", n, maxAddr)
	case n > netsim.MaxFrame:
		return false, nil, fmt.Errorf("transport: invalid frame length %d", n)
	}
	if err = fr.fill(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return false, nil, err
	}
	body = fr.buf[fr.start : fr.start+n : fr.start+n]
	fr.start += n
	return hello, body, nil
}

// prefix reads a frame's prefix and returns the length of the body
// behind it, and whether it is a hello's.
func (fr *frameReader) prefix() (n int, hello bool, err error) {
	var v uint64
	for i := 0; ; i++ {
		if err := fr.fill(i + 1); err != nil {
			return 0, false, err
		}
		b := fr.buf[fr.start+i]
		v |= uint64(b&0x7F) << (7 * i)
		switch {
		case b >= 0x80 && i == maxPrefix-1:
			return 0, false, fmt.Errorf("transport: frame length longer than %d bytes", maxPrefix)
		case b >= 0x80:
			continue
		case i == 1 && b == 0 && fr.buf[fr.start] == 0x80:
			if err := fr.fill(helloHeader); err != nil {
				return 0, false, err
			}
			n = int(binary.BigEndian.Uint16(fr.buf[fr.start+2:]))
			fr.start += helloHeader
			return n, true, nil
		case i > 0 && b == 0:
			return 0, false, errors.New("transport: frame length not in its shortest form")
		}
		fr.start += i + 1
		return int(v), false, nil
	}
}

// fill reads until at least n unread bytes are in the buffer, moving the
// unread ones to its front if its tail cannot hold n, or if there are
// none (so that a read has the whole buffer), and growing it if the
// whole buffer cannot hold n.
func (fr *frameReader) fill(n int) error {
	if fr.end-fr.start >= n {
		return nil
	}
	if len(fr.buf)-fr.start < n || fr.start == fr.end {
		buf := fr.buf
		if len(buf) < n {
			buf = make([]byte, max(n, min(2*len(buf), maxFrame), readBuffer))
		}
		fr.end = copy(buf, fr.buf[fr.start:fr.end])
		fr.buf, fr.start = buf, 0
	}
	for fr.end-fr.start < n {
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end-fr.start < n {
			return err
		}
	}
	return nil
}
