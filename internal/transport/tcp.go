// Package transport implements a real TCP transport satisfying the
// netsim.Transport interface, used by the standalone broker binary and
// by integration tests that exercise the stack over actual sockets.
//
// Wire format per message: a 4-byte big-endian frame length, a 2-byte
// big-endian sender-address length, the sender address, and the payload.
// Connections are dialed lazily per destination and kept open; the
// transport is best-effort like the simulated network — reliability is
// layered above by the multicast protocols.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"govents/internal/netsim"
)

// pkgLogger receives transport diagnostics that have no error-return
// path to the application — torn frames on inbound connections, which
// readLoop previously swallowed. Package-level because accepted
// connections have no per-instance configuration hook. Default: discard.
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

// maxFrame bounds a single message frame (16 MiB) to stop a corrupted
// length prefix from allocating unbounded memory.
const maxFrame = 16 << 20

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// TCP is a netsim.Transport over real TCP sockets.
type TCP struct {
	ln net.Listener
	// addr is ln.Addr().String(), rendered once: every Send stamps it
	// into its frame.
	addr string

	mu      sync.Mutex
	conns   map[string]net.Conn // destination address -> outbound conn
	inbound map[net.Conn]bool   // accepted connections, closed on Close
	handler netsim.Handler
	closed  bool

	wg sync.WaitGroup
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
		ln:      ln,
		addr:    ln.Addr().String(),
		conns:   make(map[string]net.Conn),
		inbound: make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements netsim.Transport.
func (t *TCP) Addr() string { return t.addr }

// SetHandler implements netsim.Transport.
func (t *TCP) SetHandler(h netsim.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Send implements netsim.Transport. The first send to a destination dials
// a connection that is cached for subsequent sends; a send on a broken
// cached connection evicts it and retries once with a fresh dial.
func (t *TCP) Send(to string, payload []byte) error {
	frame, err := encodeFrame(t.Addr(), payload)
	if err != nil {
		return err
	}
	if err := t.writeFrame(to, frame); err == nil {
		return nil
	}
	// Retry once on a fresh connection (the cached one may have died).
	t.evict(to)
	return t.writeFrame(to, frame)
}

func (t *TCP) writeFrame(to string, frame []byte) error {
	conn, err := t.conn(to)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, err := conn.Write(frame); err != nil {
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

func (t *TCP) conn(to string) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	c, err := net.Dial("tcp", to)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost the race with a concurrent dial; keep the first.
		_ = c.Close()
		return existing, nil
	}
	t.conns[to] = c
	return c, nil
}

func (t *TCP) evict(to string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[to]; ok {
		_ = c.Close()
		delete(t.conns, to)
	}
}

// Close implements netsim.Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.conns = make(map[string]net.Conn)
	for c := range t.inbound {
		_ = c.Close()
	}
	t.inbound = make(map[net.Conn]bool)
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
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	for {
		from, payload, err := readFrame(conn)
		if err != nil {
			// Clean close (EOF between frames, or our own Close tearing
			// the socket down) is the normal end of a connection; anything
			// else — a torn frame, a corrupt length prefix — is a peer or
			// network anomaly worth surfacing.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				logger().Warn("transport: closing inbound connection on bad frame",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(from, payload)
		}
	}
}

// encodeFrame builds [len u32][addrLen u16][addr][payload].
func encodeFrame(from string, payload []byte) ([]byte, error) {
	if len(from) > 0xFFFF {
		return nil, fmt.Errorf("transport: sender address too long (%d bytes)", len(from))
	}
	body := 2 + len(from) + len(payload)
	if body > maxFrame {
		return nil, fmt.Errorf("transport: frame too large (%d bytes)", body)
	}
	buf := make([]byte, 4+body)
	binary.BigEndian.PutUint32(buf[0:4], uint32(body))
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(from)))
	copy(buf[6:], from)
	copy(buf[6+len(from):], payload)
	return buf, nil
}

// readFrame reads one frame from r.
func readFrame(r io.Reader) (from string, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", nil, err
	}
	body := binary.BigEndian.Uint32(lenBuf[:])
	if body < 2 || body > maxFrame {
		return "", nil, fmt.Errorf("transport: invalid frame length %d", body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, err
	}
	addrLen := int(binary.BigEndian.Uint16(buf[0:2]))
	if 2+addrLen > len(buf) {
		return "", nil, fmt.Errorf("transport: invalid address length %d", addrLen)
	}
	return string(buf[2 : 2+addrLen]), buf[2+addrLen:], nil
}
