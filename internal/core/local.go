package core

import (
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/codec"
)

// Local is the in-process dissemination substrate: publications loop
// back to the local engine only. PublishEnvelope hands the envelope to
// the engine's intake on the publisher's goroutine, so a publisher's
// obvents reach the dispatch lanes in publication order, which within a
// single process satisfies every ordering semantics, and a full
// OverloadBlock lane holds up the Publish that feeds it. It is the
// substrate of choice for single-process applications and tests.
// Distributed dissemination is provided by package dace.
type Local struct {
	mu     sync.Mutex
	sink   func(*codec.Envelope)
	closed bool
	// inc and names name the publications (the loopback's incarnation, a
	// clock reading, and its count).
	inc   uint64
	names atomic.Uint64
}

var _ Disseminator = (*Local)(nil)

// NewLocal returns a loopback disseminator.
func NewLocal() *Local { return &Local{inc: uint64(time.Now().UnixMicro())} }

// SetSink implements Disseminator.
func (l *Local) SetSink(sink func(*codec.Envelope)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// PublishEnvelope implements Disseminator.
func (l *Local) PublishEnvelope(env *codec.Envelope) error {
	env.Name = codec.Name{Inc: l.inc, N: l.names.Add(1)}
	l.mu.Lock()
	sink, closed := l.sink, l.closed
	l.mu.Unlock()
	if closed {
		return ErrEngineClosed
	}
	if sink != nil {
		sink(env)
	}
	return nil
}

// SubscriptionChanged implements Disseminator; the loopback has no
// remote parties to advertise to.
func (l *Local) SubscriptionChanged([]SubscriptionInfo, ...string) error { return nil }

// Close implements Disseminator.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
