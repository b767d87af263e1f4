package core

import (
	"sync"

	"govents/internal/codec"
)

// Local is the in-process dissemination substrate: publications loop
// back to the local engine only. It preserves publication order (a
// serial queue), which trivially satisfies every ordering semantics
// within a single process, and is the substrate of choice for
// single-process applications and tests. Distributed dissemination is
// provided by package dace.
type Local struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*codec.Envelope
	sink   func(*codec.Envelope)
	closed bool
	wg     sync.WaitGroup
}

var _ Disseminator = (*Local)(nil)

// NewLocal returns a loopback disseminator.
func NewLocal() *Local {
	l := &Local{}
	l.cond = sync.NewCond(&l.mu)
	l.wg.Add(1)
	go l.loop()
	return l
}

// SetSink implements Disseminator.
func (l *Local) SetSink(sink func(*codec.Envelope)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// PublishEnvelope implements Disseminator.
func (l *Local) PublishEnvelope(env *codec.Envelope) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrEngineClosed
	}
	l.queue = append(l.queue, env)
	l.cond.Signal()
	return nil
}

// SubscriptionChanged implements Disseminator; the loopback has no
// remote parties to advertise to.
func (l *Local) SubscriptionChanged([]SubscriptionInfo, ...string) error { return nil }

// Close implements Disseminator.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}

func (l *Local) loop() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		env := l.queue[0]
		l.queue[0] = nil // the backing array must not keep it alive
		l.queue = l.queue[1:]
		sink := l.sink
		l.mu.Unlock()
		if sink != nil {
			sink(env)
		}
	}
}
