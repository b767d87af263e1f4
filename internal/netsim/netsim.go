// Package netsim provides the point-to-point messaging substrate that the
// dissemination protocols of this repository run on.
//
// The paper evaluates its DACE architecture on a real distributed
// infrastructure; this repository substitutes an in-process simulated
// network (per the reproduction ground rules): endpoints exchange byte
// messages through a Network that injects configurable latency, loss,
// duplication, partitions and crashes, with a seeded random source for
// reproducibility. A real TCP transport with the same Transport interface
// lives in package transport.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes an inbound message. Handlers run on dedicated
// delivery goroutines; they may call Send. The payload is valid for the
// call only, and read-only: the transport reuses its buffer once the
// handler returns (the TCP transport reads the connection's next frames
// into it), so a handler copies whatever it keeps. The simulated
// network enforces this: it writes poison over each delivery's copy as
// soon as the handler returns.
type Handler func(from string, payload []byte)

// Transport is the messaging abstraction shared by the simulated network
// and the TCP transport: addressed, connectionless, best-effort delivery
// of byte payloads. Reliability is layered on top by the multicast
// protocols.
type Transport interface {
	// Addr returns the endpoint's stable address.
	Addr() string
	// Send transmits payload to the endpoint with address to. Send is
	// asynchronous and best-effort: a nil error does not imply
	// delivery. Send does not keep payload, nor write to it: the caller
	// may overwrite it as soon as Send returns, or send it again, which
	// is what lets the multicast layer build every frame in a reused
	// buffer and fan one frame out. A payload longer than
	// MaxFrame is refused with an error wrapping ErrFrameTooLarge.
	Send(to string, payload []byte) error
	// SetHandler installs the inbound message handler. It must be
	// called before any message is expected; installing a handler
	// replaces the previous one.
	SetHandler(h Handler)
	// Close releases the endpoint. Further Sends fail.
	Close() error
}

// Config controls the fault model of a simulated Network.
type Config struct {
	// MinLatency and MaxLatency bound the uniformly distributed
	// one-way delay. Both zero means immediate handoff.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossRate is the probability in [0,1] that a message is dropped.
	LossRate float64
	// DupRate is the probability in [0,1] that a message is delivered
	// twice.
	DupRate float64
	// Seed seeds the random source; zero selects a fixed default so
	// runs are reproducible unless explicitly varied.
	Seed int64
}

// Network is a simulated unreliable network. Create endpoints with
// NewEndpoint; connect the fault model with the Config passed to New.
type Network struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[string]*Endpoint
	blocked   map[[2]string]bool // unordered pairs cut by partitions
	down      map[string]bool    // crashed/disconnected endpoints
	closed    bool

	inflight inflightCounter

	// Counters for bandwidth/message accounting (exp C1).
	sentMessages atomic.Int64
	sentBytes    atomic.Int64
	dropped      atomic.Int64
	delivered    atomic.Int64
}

// New returns a Network with the given fault model.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[string]*Endpoint),
		blocked:   make(map[[2]string]bool),
		down:      make(map[string]bool),
	}
}

// ErrClosed is returned by operations on closed networks or endpoints.
var ErrClosed = errors.New("netsim: closed")

// MaxFrame is the longest payload a Transport carries in one Send: the
// TCP transport's 16 MiB frame less its longest length prefix, four
// bytes. The
// simulated network enforces the same bound, and the multicast protocols
// refuse a publication whose frame would exceed it before they stamp or
// persist it, since no retransmission could ever deliver it.
const MaxFrame = 16<<20 - 4

// ErrFrameTooLarge is wrapped by the error of a Send longer than
// MaxFrame, and of a publication whose frame would be.
var ErrFrameTooLarge = errors.New("frame too large")

// NewEndpoint creates and registers an endpoint with the given address.
func (n *Network) NewEndpoint(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("netsim: endpoint %q already exists", addr)
	}
	ep := &Endpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	return ep, nil
}

// pairKey returns the canonical unordered pair key.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition cuts all links between the endpoints in side a and those in
// side b (both directions). Endpoints within a side stay connected.
func (n *Network) Partition(a, b []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			n.blocked[pairKey(x, y)] = true
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]string]bool)
}

// Crash disconnects an endpoint: all traffic to and from it is dropped
// until Restart. The endpoint object stays valid.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[addr] = true
}

// Restart reconnects a crashed endpoint.
func (n *Network) Restart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, addr)
}

// Close shuts down the network; all endpoints are closed.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.markClosed()
	}
	n.inflight.Wait()
	return nil
}

// Settle blocks until all in-flight messages have been delivered or
// dropped. It is a test aid: after Settle returns, no deliveries triggered
// by earlier Sends remain pending (deliveries may themselves have sent new
// messages, which Settle also waits for, as long as each cascade hop is
// sent before the previous message's delivery completes). A multicast
// group delivers on the handler's goroutine, so everything received has
// then reached a dispatch lane, bar a certified group's paused backlog.
func (n *Network) Settle() {
	n.inflight.Wait()
}

// inflightCounter is a WaitGroup variant whose Add may be called
// concurrently with Wait even when the counter is at zero. Timer ticks
// and publishers send new messages while Settle waits — the exact
// interleaving sync.WaitGroup forbids (Add-from-zero racing Wait).
type inflightCounter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

// Add adjusts the counter by d.
func (c *inflightCounter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	if c.n < 0 {
		panic("netsim: negative in-flight count")
	}
	if c.n == 0 && c.cond != nil {
		c.cond.Broadcast()
	}
}

// Done decrements the counter.
func (c *inflightCounter) Done() { c.Add(-1) }

// Wait blocks until the counter reaches zero.
func (c *inflightCounter) Wait() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	for c.n > 0 {
		c.cond.Wait()
	}
}

// Stats reports cumulative counters: messages offered to the network,
// total payload bytes offered, messages dropped by the fault model, and
// messages delivered to handlers.
func (n *Network) Stats() (sent, bytes, dropped, delivered int64) {
	return n.sentMessages.Load(), n.sentBytes.Load(), n.dropped.Load(), n.delivered.Load()
}

// ResetStats zeroes the cumulative counters.
func (n *Network) ResetStats() {
	n.sentMessages.Store(0)
	n.sentBytes.Store(0)
	n.dropped.Store(0)
	n.delivered.Store(0)
}

// send implements the fault model. Called by Endpoint.Send.
func (n *Network) send(from, to string, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no endpoint %q", to)
	}
	n.sentMessages.Add(1)
	n.sentBytes.Add(int64(len(payload)))

	if n.down[from] || n.down[to] || n.blocked[pairKey(from, to)] {
		n.dropped.Add(1)
		n.mu.Unlock()
		return nil // silently dropped, like a real network
	}

	copies := 1
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		copies = 0
		n.dropped.Add(1)
	} else if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		copies = 2
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		delays[i] = n.randLatencyLocked()
	}
	n.mu.Unlock()

	for _, d := range delays {
		// Each delivery, a duplicate's too, gets a copy of its own, which
		// is poisoned once its handler returns: a handler that kept the
		// payload without copying it reads poison (Handler).
		data := append([]byte(nil), payload...)
		n.inflight.Add(1)
		go func(delay time.Duration) {
			defer n.inflight.Done()
			defer poison(data)
			if delay > 0 {
				time.Sleep(delay)
			}
			// Re-check endpoint liveness at delivery time: a crash
			// while the message is in flight loses it.
			n.mu.Lock()
			deadNow := n.down[to] || n.closed
			n.mu.Unlock()
			if deadNow {
				n.dropped.Add(1)
				return
			}
			if dst.deliver(from, data) {
				n.delivered.Add(1)
			} else {
				n.dropped.Add(1)
			}
		}(d)
	}
	return nil
}

// poisonByte is what the network writes over a delivered payload once
// its handler has returned.
const poisonByte = 0xDB

// poison writes poisonByte over b.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

func (n *Network) randLatencyLocked() time.Duration {
	if n.cfg.MaxLatency <= 0 {
		return 0
	}
	if n.cfg.MaxLatency <= n.cfg.MinLatency {
		return n.cfg.MinLatency
	}
	span := n.cfg.MaxLatency - n.cfg.MinLatency
	return n.cfg.MinLatency + time.Duration(n.rng.Int63n(int64(span)))
}

// Endpoint is a simulated network attachment point.
type Endpoint struct {
	net  *Network
	addr string

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

var _ Transport = (*Endpoint)(nil)

// Addr implements Transport.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler implements Transport.
func (e *Endpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send implements Transport. The payload is copied before Send returns.
func (e *Endpoint) Send(to string, payload []byte) error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("netsim: %w (%d bytes)", ErrFrameTooLarge, len(payload))
	}
	return e.net.send(e.addr, to, payload)
}

// Close implements Transport.
func (e *Endpoint) Close() error {
	e.markClosed()
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	return nil
}

func (e *Endpoint) markClosed() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// deliver hands a message to the endpoint's handler. Returns false if the
// endpoint is closed or has no handler.
func (e *Endpoint) deliver(from string, payload []byte) bool {
	e.mu.RLock()
	h := e.handler
	closed := e.closed
	e.mu.RUnlock()
	if closed || h == nil {
		return false
	}
	h(from, payload)
	return true
}
