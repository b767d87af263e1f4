// Package clock is a node's one source of time for its timers: the
// links' retransmission and acknowledgement timer, the causal flush, the
// advertisement heartbeat with the silence it measures, and the
// retention pass. Real is the wall clock; a test moves a Fake by hand.
// A timer here is armed only while its owner has work for it, and
// re-armed from its own callback: there is no ticker.
package clock

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Clock tells the time and calls f, on a goroutine of its choosing, once
// d has passed.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call. Stop and Reset report whether it
// was pending, as time.Timer's do.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time                            { return time.Now() }
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// A Job is a function a clock runs each time its owner arms it: one run
// at a time, and none once Stop has returned.
type Job struct {
	t       Timer
	running sync.Mutex // held by a run
	stopped atomic.Bool
}

// Init makes j's timer on c to run f, disarmed: a Clock makes timers
// armed, so this one is stopped at once.
func (j *Job) Init(c Clock, f func()) {
	j.t = c.AfterFunc(time.Hour, func() {
		j.running.Lock()
		defer j.running.Unlock()
		if !j.stopped.Load() {
			f()
		}
	})
	j.t.Stop()
}

// Reset arms j to run d from now; f may call it to run again.
func (j *Job) Reset(d time.Duration) { j.t.Reset(d) }

// Stop disarms j once a run in progress has returned, for good. f must
// not call it.
func (j *Job) Stop() {
	j.running.Lock()
	defer j.running.Unlock()
	j.stopped.Store(true)
	if j.t != nil {
		j.t.Stop()
	}
}

// Stopped reports whether Stop has been called.
func (j *Job) Stopped() bool { return j.stopped.Load() }

// Fake is a clock that stands still until Advance moves it. Its
// callbacks run on the goroutine that calls Advance.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	pending []*fakeTimer // armed
	armed   uint64       // arming count: orders timers due at one instant
	fired   uint64
}

// NewFake returns a fake clock reading start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock d forward. On the way it runs each callback
// that falls due, one a callback arms included, in deadline order (in
// arming order at one instant), with the clock at its deadline.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	for len(c.pending) > 0 {
		t := slices.MinFunc(c.pending, func(a, b *fakeTimer) int {
			return cmp.Or(a.when.Compare(b.when), cmp.Compare(a.seq, b.seq))
		})
		if t.when.After(end) {
			break
		}
		t.unlinkLocked()
		c.now = t.when
		c.fired++
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
}

// Fired returns how many callbacks Advance has run.
func (c *Fake) Fired() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

type fakeTimer struct {
	c    *Fake
	f    func()
	when time.Time
	seq  uint64
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.unlinkLocked()
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.unlinkLocked()
	t.c.armed++
	t.when, t.seq = t.c.now.Add(d), t.c.armed
	t.c.pending = append(t.c.pending, t)
	return was
}

// unlinkLocked disarms t, reporting whether it was armed.
func (t *fakeTimer) unlinkLocked() bool {
	i := slices.Index(t.c.pending, t)
	if i >= 0 {
		t.c.pending = slices.Delete(t.c.pending, i, i+1)
	}
	return i >= 0
}
