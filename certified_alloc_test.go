package govents_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"govents"
	"govents/netsim"
)

// TestCertifiedDurableAllocsPerEvent pins what it costs the heap to move
// one certified event with a 1 KiB []byte field from Publish on one
// durable domain to a durable subscription's handler on another
// (WithDurability + SyncBatch on both, over netsim, whose one copy per
// frame and goroutine per send are in the figure): outbox append,
// frame, staging, decode, dispatch, both acknowledgements. Before the
// payload was copied once per hop this read 21.4 KB and 65 allocations.
func TestCertifiedDurableAllocsPerEvent(t *testing.T) {
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
		d, err := govents.Open(ctx, addr,
			govents.WithTransport(ep),
			govents.WithPeers(addrs...),
			govents.WithTelemetry(false),
			govents.WithDurability(t.TempDir()),
			govents.WithDurabilityTuning(govents.DurabilityTuning{Sync: govents.SyncBatch}))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(ctx)
		d.Registry().MustRegister(padCertified{})
		domains[i] = d
	}
	var got atomic.Int64
	if _, err := govents.SubscribeDurable(domains[1], "pin-sub", func(padCertified) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription ad at publisher", func() bool { return domains[0].RemoteSubscriptionCount() >= 1 })

	pad := make([]byte, 1024)
	seq := int64(0)
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			// Paced: a handful in flight, as an open loop below capacity
			// has, so no event waits for a redelivery tick.
			for seq-got.Load() >= 8 {
				runtime.Gosched()
			}
			if err := domains[0].Publish(ctx, padCertified{Seq: seq, Pad: pad}); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		waitFor(t, "every event handled", func() bool { return got.Load() == seq })
		net.Settle() // the acknowledgements too
	}
	publish(500) // warm: groups, plans, scratch, framing buffers, indexes

	const events = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish(events)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / events
	allocs := float64(after.Mallocs-before.Mallocs) / events
	t.Logf("%.0f bytes and %.1f allocations per event", bytes, allocs)
	if bytes > 12<<10 || allocs > 36 {
		t.Errorf("one certified-durable 1 KiB event costs %.0f bytes and %.1f allocations, want <= %d and <= 36", bytes, allocs, 12<<10)
	}
}
