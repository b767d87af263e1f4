package govents_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"govents"
	"govents/netsim"
	"govents/obvent"
)

// allocsPerEvent opens two domains over netsim (whose one copy per frame
// and goroutine per send are in the figures), subscribes at the second,
// and reports the heap bytes and allocations, both ends together, of
// moving one event from Publish at the first to the handler: 5000 events
// after 500 to warm groups, plans, scratch, framing buffers and indexes,
// paced with a handful in flight, as an open loop below capacity has, so
// that no event waits for a timer.
func allocsPerEvent(t *testing.T, opts func() []govents.Option,
	subscribe func(d *govents.Domain, got *atomic.Int64) error,
	publish func(d *govents.Domain, seq int64) error) (bytes, allocs float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	net := netsim.New(netsim.Config{})
	defer net.Close()
	addrs := []string{"node-0", "node-1"}
	domains := make([]*govents.Domain, len(addrs))
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := govents.Open(ctx, addr, append(opts(),
			govents.WithTransport(ep),
			govents.WithPeers(addrs...),
			govents.WithTelemetry(false))...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(ctx)
		domains[i] = d
	}
	var got atomic.Int64
	if err := subscribe(domains[1], &got); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription ad at publisher", func() bool { return domains[0].RemoteSubscriptionCount() >= 1 })

	seq := int64(0)
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for seq-got.Load() >= 8 {
				runtime.Gosched()
			}
			if err := publish(domains[0], seq); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		waitFor(t, "every event handled", func() bool { return got.Load() == seq })
		net.Settle() // the acknowledgements too
	}
	run(500)

	const events = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(events)
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / events
	allocs = float64(after.Mallocs-before.Mallocs) / events
	t.Logf("%.0f bytes and %.1f allocations per event", bytes, allocs)
	return bytes, allocs
}

// TestCertifiedDurableAllocsPerEvent pins what it costs the heap to move
// one certified event with a 1 KiB []byte field from Publish on one
// durable domain to a durable subscription's handler on another
// (WithDurability + SyncBatch on both): outbox append, frame, staging,
// decode, dispatch, both acknowledgements. Before the payload was copied
// once per hop this read 21.4 KB and 65 allocations; the limits are the
// reading (7.4 KB, 24.3) and a tenth.
func TestCertifiedDurableAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	pad := make([]byte, 1024)
	bytes, allocs := allocsPerEvent(t,
		func() []govents.Option {
			return []govents.Option{
				govents.WithDurability(t.TempDir()),
				govents.WithDurabilityTuning(govents.DurabilityTuning{Sync: govents.SyncBatch})}
		},
		func(d *govents.Domain, got *atomic.Int64) error {
			_, err := govents.SubscribeDurable(d, "pin-sub", func(padCertified) { got.Add(1) })
			return err
		},
		func(d *govents.Domain, seq int64) error { return d.Publish(ctx, padCertified{Seq: seq, Pad: pad}) })
	if bytes > 8<<10 || allocs > 27 {
		t.Errorf("one certified-durable 1 KiB event costs %.0f bytes and %.1f allocations, want <= %d and <= 27", bytes, allocs, 8<<10)
	}
}

// flatFIFO is a flat FIFO-ordered class of about the benchmark's size.
type flatFIFO struct {
	obvent.Base
	obvent.FIFOOrderBase
	Seq        int64
	Key        int32
	A, B, C, D float64
}

// TestFIFOWirePathAllocsPerEvent pins the per-message wire path: one
// flat FIFO event from Publish to an unfiltered subscription's handler
// on another domain costs the envelope and its payload, the record (the
// class and the publisher left to the link), the frame, the link's
// bookkeeping, one header block and one box, and the acknowledgements'
// share. The limits are the reading (1.08 KB, 13.5) and a tenth; before
// the link form and the one-block header this read 1.31 KB and 17.5.
func TestFIFOWirePathAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	bytes, allocs := allocsPerEvent(t,
		func() []govents.Option { return nil },
		func(d *govents.Domain, got *atomic.Int64) error {
			_, err := govents.Subscribe(d, nil, func(flatFIFO) { got.Add(1) })
			return err
		},
		func(d *govents.Domain, seq int64) error { return d.Publish(ctx, flatFIFO{Seq: seq, A: 1.5}) })
	if bytes > 1200 || allocs > 14.9 {
		t.Errorf("one flat FIFO event costs %.0f bytes and %.1f allocations, want <= 1200 and <= 14.9", bytes, allocs)
	}
}
