package govents_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/filter"
	"govents/internal/clock"
	"govents/netsim"
	"govents/obvent"
)

// allocsPerEvent opens two domains over netsim (whose one copy per frame
// and goroutine per send are in the figures), subscribes at the second,
// and reports the heap bytes and allocations, both ends together, of
// moving one event from Publish at the first to the handler: 5000 events
// after 500 to warm groups, plans, scratch, framing buffers and indexes,
// paced with a handful in flight, as an open loop below capacity has, so
// that no event waits for a timer. The domains run on a fake clock, which
// moves one timer period (a quarter of the default 20 ms
// RetransmitInterval) after each batch of pinBatch events has landed:
// whether an acknowledgement beats a retransmission is the protocol's
// business, not the machine's load. A batch is four acknowledgements'
// worth (ackEvery, 16), fewer events than a real period passes under
// this loop on an unloaded machine (about 185).
func allocsPerEvent(t *testing.T, opts func() []govents.Option,
	subscribe func(d *govents.Domain, got *atomic.Int64) error,
	publish func(d *govents.Domain, seq int64) error) (r pinReading) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	net := netsim.New(netsim.Config{})
	defer net.Close()
	clk := clock.NewFake(time.Unix(0, 0))
	addrs := []string{"node-0", "node-1"}
	domains := make([]*govents.Domain, len(addrs))
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := govents.Open(ctx, addr, append(opts(),
			govents.WithClock(clk),
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
			if seq++; seq%pinBatch == 0 {
				net.Settle()
				clk.Advance(pinPeriod)
				r.periods++
			}
		}
		waitFor(t, "every event handled", func() bool { return got.Load() == seq })
		net.Settle() // the acknowledgements too
	}
	run(500)

	var before, after runtime.MemStats
	pub0, sub0 := domains[0].DurableStats(), domains[1].DurableStats()
	r.periods = 0
	runtime.ReadMemStats(&before)
	run(pinEvents)
	runtime.ReadMemStats(&after)
	r.pub, r.sub = domains[0].DurableStats(), domains[1].DurableStats()
	r.pub.Appends -= pub0.Appends
	r.sub.Staged, r.sub.StageDups = r.sub.Staged-sub0.Staged, r.sub.StageDups-sub0.StageDups
	r.bytes = float64(after.TotalAlloc-before.TotalAlloc) / pinEvents
	r.allocs = float64(after.Mallocs-before.Mallocs) / pinEvents
	t.Logf("%.0f bytes and %.1f allocations per event", r.bytes, r.allocs)
	return r
}

// pinEvents is how many events allocsPerEvent measures over, pinBatch
// how many it publishes per timer period, and pinPeriod that period.
const (
	pinEvents = 5000
	pinBatch  = 64
	pinPeriod = 5 * time.Millisecond
)

// pinReading is what they cost per event, how many timer periods the
// fake clock moved over them, and what they added to the durability
// counters of the publisher (Appends) and the subscriber (Staged,
// StageDups).
type pinReading struct {
	bytes, allocs float64
	periods       int
	pub, sub      govents.DurableStats
}

// TestCertifiedDurableAllocsPerEvent pins what it costs the heap to move
// one certified event with a 1 KiB []byte field from Publish on one
// durable domain to a durable subscription's handler on another
// (WithDurability + SyncBatch on both): outbox append, frame, staging,
// decode, dispatch, and its share of an acknowledgement of runs. With an
// acknowledgement frame and an outbox record per event this read 7.4 KB
// and 24.3 allocations, and 6.7 KB and 16.6 while the record and the
// frame were each a copy of the payload, and 4.30 KB and 13.6 with the
// header written in front of the payload and the frame in a reused
// buffer, and 3.90 KB and 11.6 with no envelope allocated at either
// end, and 2.75 KB and 10.5 with the outbox, the link and the lane
// copying what they keep into recycled chunks, so the publisher's buffer
// goes back to the pool, and 2.51 KB and 7.5 with the staging inbox and
// the delivery's acknowledgement keying the event's name, not its text,
// the stored record opening with no copy of its header, and the []byte
// field decoding in one allocation; the limits are the reading with the
// inbox deduplicating names by runs of counts and indexing only what its
// cursor owes, so that it no longer grows a map entry per event, 2.38 KB
// and 7.5; the limits are the reading with the durable subscription's
// queue holding its typed value, with no box (2.34 KB, 6.5), and a
// tenth. The steady state it measures resends nothing, and the
// publisher's meta log takes a record per acknowledgement, of which the
// subscriber sends one per ackEvery (16) events and one per timer period,
// where it took 5000.
func TestCertifiedDurableAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	pad := make([]byte, 1024)
	r := allocsPerEvent(t,
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
	if r.bytes > 2580 || r.allocs > 7.2 {
		t.Errorf("one certified-durable 1 KiB event costs %.0f bytes and %.1f allocations, want <= 2580 and <= 7.2", r.bytes, r.allocs)
	}
	if r.sub.Staged != pinEvents || r.sub.StageDups != 0 {
		t.Errorf("the subscriber staged %d events and suppressed %d redeliveries of %d published, want each sent once", r.sub.Staged, r.sub.StageDups, pinEvents)
	}
	records, periods := int(r.pub.Appends)-pinEvents, r.periods
	t.Logf("%d acknowledgement records in the publisher's meta log over %d timer periods", records, periods)
	if limit := pinEvents/8 + periods; records > limit {
		t.Errorf("the publisher's meta log took %d acknowledgement records for %d events over %d timer periods, want <= %d", records, pinEvents, periods, limit)
	}
}

// TestCertifiedAllocsPerEvent pins the same event on the in-memory
// certified path, domains without WithDurability, whose outbox and
// inbox are internal/durable's over a file seam that keeps no bytes. It
// read 6.7 KB and 16.6 allocations while the record and the frame were
// each a copy of the payload, 4.30 KB and 13.5 without those copies,
// 3.90 KB and 11.5 with no envelope allocated at either end, and 2.75
// KB and 10.5 with the outbox, the link and the lane copying what they
// keep into recycled chunks, and 2.50 KB and 7.4 with the inbox keying
// names, the stored record opening with no header copy and the []byte
// field decoding in one allocation, and 2.37 KB and 7.4 with the inbox
// keeping names as runs and only what is owed in its index; the limits
// are the reading with the subscription's queue holding its typed value,
// with no box (2.33 KB, 6.4), and a tenth.
func TestCertifiedAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	pad := make([]byte, 1024)
	r := allocsPerEvent(t,
		func() []govents.Option { return nil },
		func(d *govents.Domain, got *atomic.Int64) error {
			_, err := govents.Subscribe(d, nil, func(padCertified) { got.Add(1) })
			return err
		},
		func(d *govents.Domain, seq int64) error { return d.Publish(ctx, padCertified{Seq: seq, Pad: pad}) })
	if r.bytes > 2570 || r.allocs > 7.1 {
		t.Errorf("one in-memory certified 1 KiB event costs %.0f bytes and %.1f allocations, want <= 2570 and <= 7.1", r.bytes, r.allocs)
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
// on another domain costs the link's bookkeeping and the
// acknowledgements' share; the payload is encoded, behind room for the
// record's header (the class and the publisher left to the link), into
// the buffer the publisher's pooled envelope kept from the event before,
// since the link copies the record into its log, the frame is built in a
// reused buffer, the subscriber's envelope is its channel's scratch, and
// the event is named by numbers, which no end renders, and the
// subscription's queue holds the decoded value, with no box. The limits
// are the reading (234 B, 5.3) and a tenth; with a box per delivery this
// read 282 B and 6.3, while each event had a random
// ID, minted in blocks of 16 and spelled out as text at the subscriber,
// this read 0.36 KB and 7.4, with a payload buffer per event 0.56 KB and
// 8.4, with an envelope allocated at each end too 0.96 KB and 10.4, with
// the record and the frame each a copy 1.08 KB and 13.5, and before the
// link form and the one-block header 1.31 KB and 17.5.
func TestFIFOWirePathAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	r := allocsPerEvent(t,
		func() []govents.Option { return nil },
		func(d *govents.Domain, got *atomic.Int64) error {
			_, err := govents.Subscribe(d, nil, func(flatFIFO) { got.Add(1) })
			return err
		},
		func(d *govents.Domain, seq int64) error { return d.Publish(ctx, flatFIFO{Seq: seq, A: 1.5}) })
	if r.bytes > 257 || r.allocs > 5.8 {
		t.Errorf("one flat FIFO event costs %.0f bytes and %.1f allocations, want <= 257 and <= 5.8", r.bytes, r.allocs)
	}
}

// keyedFIFO is flatFIFO with the accessor the benchmark's migratable
// filters name (paper LP2).
type keyedFIFO struct {
	obvent.Base
	obvent.FIFOOrderBase
	Seq        int64
	Key        int32
	A, B, C, D float64
}

func (e keyedFIFO) GetKey() int64 { return int64(e.Key) }

// TestFilteredRoutingAllocsPerEvent pins what a migratable filter costs
// the publisher that evaluates it (AtPublisher, the default placement).
// The publisher routes on the value it published, which decoding its
// payload would give back, and calls the accessor the filter names
// directly, so a GetKey < k filter that every event passes costs what no
// filter costs, within 0.05 allocations and 8 B. While routing decoded
// the payload into a fresh box to call the accessor on, the gap read 1.0
// allocation and 45 B. A filter on the field itself, Key < k, is held to
// the same bound: both ends read it off the value they evaluate, as they
// do the accessor.
func TestFilteredRoutingAllocsPerEvent(t *testing.T) {
	ctx := context.Background()
	reading := func(f *filter.Expr) pinReading {
		return allocsPerEvent(t,
			func() []govents.Option { return nil },
			func(d *govents.Domain, got *atomic.Int64) error {
				_, err := govents.Subscribe(d, f, func(keyedFIFO) { got.Add(1) })
				return err
			},
			func(d *govents.Domain, seq int64) error {
				return d.Publish(ctx, keyedFIFO{Seq: seq, Key: int32(seq % 100), A: 1.5})
			})
	}
	plain := reading(nil)
	for _, path := range []string{"GetKey", "Key"} {
		filtered := reading(filter.Path(path).Lt(filter.Int(100)))
		if filtered.allocs > plain.allocs+0.05 || filtered.bytes > plain.bytes+8 {
			t.Errorf("a %s filter costs %.0f bytes and %.2f allocations per event, no filter %.0f and %.2f; want within 8 B and 0.05",
				path, filtered.bytes, filtered.allocs, plain.bytes, plain.allocs)
		}
	}
}
