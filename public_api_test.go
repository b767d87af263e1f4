// Public-API tests: subscription lifecycle, error sentinels, handler
// panic isolation and Close draining, all through the govents facade
// only (no internal imports except where a test needs the oracle).
package govents_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/filter"
	"govents/obvent"
)

type apiQuote struct {
	obvent.Base
	Company string
	Price   float64
	N       int
}

func (q apiQuote) GetPrice() float64  { return q.Price }
func (q apiQuote) GetCompany() string { return q.Company }

func openLocal(t *testing.T) *govents.Domain {
	t.Helper()
	d, err := govents.Open(context.Background(), t.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close(context.Background()) })
	return d
}

func waitCount(t *testing.T, what string, c *atomic.Int32, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Load() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s: have %d, want %d", what, c.Load(), want)
}

// TestSubscriptionLifecycle drives Activate/Deactivate/re-Activate
// through the public API: Subscribe returns an active handle, nothing
// is delivered while deactivated, and reactivation resumes delivery.
func TestSubscriptionLifecycle(t *testing.T) {
	ctx := context.Background()
	d := openLocal(t)

	var got atomic.Int32
	sub, err := govents.Subscribe(d, nil, func(q apiQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Active() {
		t.Fatal("Subscribe returned an inactive subscription")
	}

	if err := d.Publish(ctx, apiQuote{N: 1}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "first delivery", &got, 1)

	if err := sub.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if sub.Active() {
		t.Fatal("subscription active after Deactivate")
	}
	if err := d.Publish(ctx, apiQuote{N: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // would be delivered by now
	if got.Load() != 1 {
		t.Fatalf("deactivated subscription received an obvent (count %d)", got.Load())
	}

	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ctx, apiQuote{N: 3}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "post-reactivation delivery", &got, 2)

	// Lifecycle misuse fails with the paper's exceptions.
	if err := sub.Activate(); !errors.Is(err, govents.ErrCannotSubscribe) {
		t.Fatalf("double Activate error = %v, want ErrCannotSubscribe", err)
	}
	if err := sub.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Deactivate(); !errors.Is(err, govents.ErrCannotUnsubscribe) {
		t.Fatalf("double Deactivate error = %v, want ErrCannotUnsubscribe", err)
	}
}

// TestTwoPhaseSubscribe pins SubscribeInactive: the paper's form, no
// delivery before Activate.
func TestTwoPhaseSubscribe(t *testing.T) {
	ctx := context.Background()
	d := openLocal(t)

	var got atomic.Int32
	sub, err := govents.SubscribeInactive(d, nil, func(q apiQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if sub.Active() {
		t.Fatal("SubscribeInactive returned an active subscription")
	}
	if err := d.Publish(ctx, apiQuote{N: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("inactive subscription received an obvent")
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ctx, apiQuote{N: 2}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "post-activation delivery", &got, 1)
}

// TestErrorSentinels pins the errors.Is contract of the public
// sentinels across layers.
func TestErrorSentinels(t *testing.T) {
	ctx := context.Background()
	d, err := govents.Open(ctx, "sentinels")
	if err != nil {
		t.Fatal(err)
	}

	// Invalid filter: a zero Expr is structurally malformed.
	_, err = govents.Subscribe(d, &filter.Expr{}, func(q apiQuote) {})
	if !errors.Is(err, govents.ErrBadFilter) || !errors.Is(err, govents.ErrCannotSubscribe) {
		t.Fatalf("bad-filter error = %v, want ErrBadFilter and ErrCannotSubscribe", err)
	}

	// Cancelled context.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := d.Publish(cancelled, apiQuote{}); !errors.Is(err, govents.ErrCannotPublish) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled publish error = %v, want ErrCannotPublish and context.Canceled", err)
	}

	// Closed domain.
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := d.Publish(ctx, apiQuote{}); !errors.Is(err, govents.ErrClosed) || !errors.Is(err, govents.ErrCannotPublish) {
		t.Fatalf("publish-after-close error = %v, want ErrClosed and ErrCannotPublish", err)
	}
	if _, err := govents.Subscribe(d, nil, func(q apiQuote) {}); !errors.Is(err, govents.ErrClosed) {
		t.Fatalf("subscribe-after-close error = %v, want ErrClosed", err)
	}
}

// TestHandlerPanicIsolation pins that a panicking handler neither
// kills the process nor starves other subscriptions of the same event,
// and that the panics are counted in the domain stats.
func TestHandlerPanicIsolation(t *testing.T) {
	ctx := context.Background()
	d := openLocal(t)

	var healthy atomic.Int32
	if _, err := govents.Subscribe(d, nil, func(q apiQuote) { panic("handler bug") }); err != nil {
		t.Fatal(err)
	}
	if _, err := govents.Subscribe(d, nil, func(q apiQuote) { healthy.Add(1) }); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if err := d.Publish(ctx, apiQuote{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, "healthy subscription deliveries", &healthy, 3)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.Stats().HandlerPanics != 3 {
		time.Sleep(time.Millisecond)
	}
	if got := d.Stats().HandlerPanics; got != 3 {
		t.Fatalf("HandlerPanics = %d, want 3", got)
	}

	// The domain is still fully functional.
	if err := d.Publish(ctx, apiQuote{N: 99}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "post-panic delivery", &healthy, 4)
}

// TestCloseDrainsInFlightDeliveries pins Close(ctx) draining: every
// obvent already handed to a subscription executor is handled before
// Close returns.
func TestCloseDrainsInFlightDeliveries(t *testing.T) {
	ctx := context.Background()
	d, err := govents.Open(ctx, "drain")
	if err != nil {
		t.Fatal(err)
	}

	const events = 5
	var handled atomic.Int32
	sub, err := govents.SubscribeInactive(d, nil, func(q apiQuote) {
		time.Sleep(5 * time.Millisecond) // slow handler
		handled.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.SetSingleThreading()
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < events; i++ {
		if err := d.Publish(ctx, apiQuote{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until all events reached the executor (Delivered counts
	// hand-offs, not completed handlers).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.Stats().Delivered < events {
		time.Sleep(time.Millisecond)
	}
	if got := d.Stats().Delivered; got < events {
		t.Fatalf("only %d/%d deliveries reached executors", got, events)
	}

	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := handled.Load(); got != events {
		t.Fatalf("Close returned with %d/%d deliveries handled", got, events)
	}

	// An expired deadline surfaces ctx.Err while shutdown continues in
	// the background — and a later Close waits that shutdown out
	// instead of returning immediately.
	d2, err := govents.Open(ctx, "drain-expired")
	if err != nil {
		t.Fatal(err)
	}
	var handled2 atomic.Int32
	sub2, err := govents.SubscribeInactive(d2, nil, func(q apiQuote) {
		time.Sleep(5 * time.Millisecond)
		handled2.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	sub2.SetSingleThreading()
	if err := sub2.Activate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		if err := d2.Publish(ctx, apiQuote{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d2.Stats().Delivered < events {
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := d2.Close(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close with expired ctx = %v, want context.Canceled", err)
	}
	if err := d2.Close(ctx); err != nil {
		t.Fatalf("second Close = %v, want nil after drain", err)
	}
	if got := handled2.Load(); got != events {
		t.Fatalf("second Close returned with %d/%d deliveries handled", got, events)
	}
}

// TestOpenRejectsDistributedOptionsWithoutTransport pins that Open
// fails loudly instead of silently dropping distribution-only options.
func TestOpenRejectsDistributedOptionsWithoutTransport(t *testing.T) {
	if _, err := govents.Open(context.Background(), "oops", govents.WithPeers("a", "b")); err == nil {
		t.Fatal("Open with WithPeers but no WithTransport succeeded")
	}
}

// TestLazyRegistration pins that Publish and Subscribe register obvent
// classes on first use: no explicit Register call anywhere.
func TestLazyRegistration(t *testing.T) {
	ctx := context.Background()
	d := openLocal(t)

	var got atomic.Int32
	if _, err := govents.Subscribe(d, filter.Path("GetPrice").Lt(filter.Float(100)), func(q apiQuote) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ctx, apiQuote{Company: "Telco", Price: 80}); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ctx, apiQuote{Company: "Telco", Price: 120}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "lazily registered delivery", &got, 1)
}
