// A publisher that subscribes to its own certified class, and one that
// does not: what each stages, acknowledges, sends itself and replays.
package govents_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/internal/clock"
	"govents/internal/durable"
	"govents/netsim"
	"govents/obvent"
)

// selfTap counts the frames a domain's endpoint sends to its own
// address, and keeps the stream of every frame it sends anywhere.
type selfTap struct {
	govents.Transport
	toSelf atomic.Int64

	mu      sync.Mutex
	streams map[string][]uint32 // destination -> stream key of each frame sent there
}

func (tap *selfTap) Send(to string, frame []byte) error {
	if to == tap.Addr() {
		tap.toSelf.Add(1)
	}
	if key, ok := frameKey(frame); ok {
		tap.mu.Lock()
		tap.streams[to] = append(tap.streams[to], key)
		tap.mu.Unlock()
	}
	return tap.Transport.Send(to, frame)
}

// sentTo returns the stream keys of the frames sent to addr so far.
func (tap *selfTap) sentTo(addr string) []uint32 {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]uint32(nil), tap.streams[addr]...)
}

// frameKey returns the key of the stream a mux frame carries a record
// on, whether it spells the stream's name (1, or 5 with an epoch, then a
// two-byte length and the name) or is short (0, or 4 with a number,
// then the four-byte key). A handshake frame carries no record.
func frameKey(frame []byte) (uint32, bool) {
	switch {
	case len(frame) >= 3 && (frame[0] == 1 || frame[0] == 5):
		if n := int(binary.BigEndian.Uint16(frame[1:])); len(frame) >= 3+n {
			return streamKey(string(frame[3 : 3+n])), true
		}
	case len(frame) >= 5 && (frame[0] == 0 || frame[0] == 4):
		return binary.BigEndian.Uint32(frame[1:]), true
	}
	return 0, false
}

// streamKey is the key of a stream name: its FNV-1a hash.
func streamKey(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// selfNet opens domains by hand (a DomainGroup owns its endpoints, and
// these tests put a tap on them).
type selfNet struct {
	t     *testing.T
	net   *netsim.Network
	addrs []string
	opts  func(addr string) []govents.Option
	clk   *clock.Fake // nil: the wall clock
}

func (sn *selfNet) open(addr string) (*govents.Domain, *selfTap) {
	sn.t.Helper()
	ep, err := sn.net.NewEndpoint(addr)
	if err != nil {
		sn.t.Fatal(err)
	}
	tap := &selfTap{Transport: ep, streams: make(map[string][]uint32)}
	opts := append([]govents.Option{
		govents.WithTransport(tap),
		govents.WithPeers(sn.addrs...),
		govents.WithTuning(govents.Tuning{RetransmitInterval: selfInterval}),
	}, sn.opts(addr)...)
	if sn.clk != nil {
		opts = append(opts, govents.WithClock(sn.clk))
	}
	d, err := govents.Open(context.Background(), addr, opts...)
	if err != nil {
		sn.t.Fatal(err)
	}
	sn.t.Cleanup(func() { _ = d.Close(context.Background()) })
	return d, tap
}

// selfInterval is the RetransmitInterval of selfNet's domains.
const selfInterval = 5 * time.Millisecond

// advance moves sn's fake clock d a timer period (a quarter of
// selfInterval) at a time, and lets the network settle after each.
func (sn *selfNet) advance(d time.Duration) {
	for range d / (selfInterval / 4) {
		sn.clk.Advance(selfInterval / 4)
		sn.net.Settle()
	}
}

// exactlyOnce fails unless r holds each of seq 0..n-1 of pub once and
// nothing else.
func exactlyOnce(t *testing.T, who string, r *recorder, pub string, n int) {
	t.Helper()
	if got := len(r.keys()); got != n {
		t.Errorf("%s saw %d distinct events, want %d: %v", who, got, n, r.keys())
	}
	for i := 0; i < n; i++ {
		if !r.has(tickKey(pub, i)) {
			t.Errorf("%s never saw %s", who, tickKey(pub, i))
		}
	}
	if d := r.dups(); d != 0 {
		t.Errorf("%s saw %d duplicate deliveries", who, d)
	}
}

// TestSelfSubscribedDurablePublisher: node-0 publishes a certified class
// and subscribes to it durably, node-1 subscribes too. Each handler sees
// each event once; node-0 sends itself nothing; its outbox is
// acknowledged by both identities and compaction retires it; a crash
// replays to node-0's subscription what its cursor had not acknowledged
// and no more; what node-0 publishes while its own subscription is away
// reaches it, once, when it is back; and a durable identity that joins
// late owes no history.
func TestSelfSubscribedDurablePublisher(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 19}),
		addrs: []string{"node-0", "node-1"},
		opts: func(addr string) []govents.Option {
			return []govents.Option{
				govents.WithDurability(filepath.Join(root, addr)),
				govents.WithDurabilityTuning(govents.DurabilityTuning{SegmentBytes: 256}),
			}
		},
	}
	defer sn.net.Close()
	d0, tap0 := sn.open("node-0")
	d1, tap1 := sn.open("node-1")

	here, there := newRecorder(), newRecorder()
	var crashing atomic.Bool // node-0's handler dies under these events, unacknowledged
	subscribeHere := func(d *govents.Domain) *govents.Subscription {
		t.Helper()
		sub, err := govents.SubscribeDurable(d, "self-sub", func(e chaosTick) {
			if crashing.Load() {
				panic("handler dies before the cursor moves")
			}
			here.record(e.Pub, e.Seq)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	subscribeHere(d0)
	if _, err := govents.SubscribeDurable(d1, "sub-1", func(e chaosTick) { there.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node-1's ad at node-0", func() bool { return d0.RemoteSubscriptionCount() >= 1 })

	seq := 0
	publish := func(d *govents.Domain, n int) (keys []string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := d.Publish(ctx, chaosTick{Pub: "node-0", Seq: seq}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, tickKey("node-0", seq))
			seq++
		}
		return keys
	}

	// Phase A: live.
	batchA := publish(d0, 40)
	waitFor(t, "phase A at both", func() bool { return here.hasAll(batchA) && there.hasAll(batchA) })
	exactlyOnce(t, "node-0", here, "node-0", 40)
	exactlyOnce(t, "node-1", there, "node-0", 40)
	if st := d0.DurableStats(); st.Staged != 40 || st.StageDups != 0 {
		t.Errorf("node-0 staged %d of its own 40 events (%d duplicates), want 40 and none", st.Staged, st.StageDups)
	}

	// Phase B: five events whose handler at node-0 dies. They are staged
	// and self-acknowledged in the outbox; the cursor does not move.
	crashing.Store(true)
	batchB := publish(d0, 5)
	waitFor(t, "phase B at node-1", func() bool { return there.hasAll(batchB) })
	waitFor(t, "phase B handled (and dropped) at node-0", func() bool { return d0.Stats().HandlerPanics >= 5 })
	crashing.Store(false)
	if here.hasAny(batchB) {
		t.Fatal("a dying handler recorded its event")
	}
	waitFor(t, "outbox acknowledged by both identities and retired", func() bool {
		if err := d0.CompactDurable(); err != nil {
			t.Fatal(err)
		}
		return d0.DurableStats().ReclaimedRecords >= 40
	})
	sn.net.Settle()
	if n := tap0.toSelf.Load() + tap1.toSelf.Load(); n != 0 {
		t.Errorf("%d frames addressed to the sender's own address, want none", n)
	}

	// Crash node-0 and read its outbox off the disk: nothing is owed.
	sn.net.Crash("node-0")
	if err := d0.Close(ctx); err != nil {
		t.Fatal(err)
	}
	classDir := filepath.Join(root, "node-0", obvent.TypeName(obvent.TypeOf[chaosTick]()))
	ob, err := durable.OpenOutbox(filepath.Join(classDir, "outbox-data"), filepath.Join(classDir, "outbox-meta"),
		durable.SegmentConfig{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"self-sub", "sub-1"} {
		if pending, err := ob.Pending(id); err != nil || len(pending) != 0 {
			t.Errorf("%s is still owed %d outbox entries (%v)", id, len(pending), err)
		}
	}
	if ob.Len() >= 45 {
		t.Errorf("outbox still holds %d of 45 entries after compaction", ob.Len())
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebirth. Before its subscription is back, node-0 publishes: those
	// events are owed to "self-sub" by the outbox. The subscription then
	// replays phase B — what its cursor had not acknowledged — and only
	// that.
	sn.net.Restart("node-0")
	d0, _ = sn.open("node-0")
	waitFor(t, "node-1's ad at the reborn node-0", func() bool { return d0.RemoteSubscriptionCount() >= 1 })
	batchC := publish(d0, 3)
	if st := d0.DurableStats(); st.Staged != 0 {
		t.Errorf("node-0 staged %d events while it had no subscription", st.Staged)
	}
	sub := subscribeHere(d0)
	if !here.hasAll(batchB) {
		t.Errorf("replay did not deliver what the cursor had not acknowledged: %v", here.keys())
	}
	if st := d0.DurableStats(); st.Replayed != 5 {
		t.Errorf("replayed %d events, want the 5 unacknowledged ones", st.Replayed)
	}
	waitFor(t, "phase C at both", func() bool { return here.hasAll(batchC) && there.hasAll(batchC) })

	// The same through a deactivation: no crash, the subscription is
	// merely away while its own domain publishes.
	if err := sub.Deactivate(); err != nil {
		t.Fatal(err)
	}
	batchD := publish(d0, 3)
	waitFor(t, "phase D at node-1", func() bool { return there.hasAll(batchD) })
	if here.hasAny(batchD) {
		t.Fatal("a deactivated subscription was delivered to")
	}
	subscribeHere(d0)
	waitFor(t, "phase D at node-0 once its subscription is back", func() bool { return here.hasAll(batchD) })

	batchE := publish(d0, 5)
	waitFor(t, "phase E at both", func() bool { return here.hasAll(batchE) && there.hasAll(batchE) })

	// Phase F: a durable identity node-1 has never used joins behind
	// everything above. It owes no history: SubscribeDurable replays
	// nothing, and it sees only what is published from then on.
	fresh := newRecorder()
	replayed := d1.DurableStats().Replayed
	if _, err := govents.SubscribeDurable(d1, "fresh-sub", func(e chaosTick) { fresh.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	if got := d1.DurableStats().Replayed; got != replayed || len(fresh.keys()) != 0 {
		t.Errorf("a fresh identity was replayed %d events and saw %v, want none", got-replayed, fresh.keys())
	}
	batchF := publish(d0, 3)
	waitFor(t, "phase F everywhere", func() bool {
		return here.hasAll(batchF) && there.hasAll(batchF) && fresh.hasAll(batchF)
	})
	time.Sleep(30 * time.Millisecond) // several redelivery ticks: a duplicate would land by now
	exactlyOnce(t, "node-0", here, "node-0", seq)
	exactlyOnce(t, "node-1", there, "node-0", seq)
	if got := fresh.keys(); len(got) != len(batchF) || fresh.dups() != 0 {
		t.Errorf("the fresh identity saw %v (%d duplicates), want only %v", got, fresh.dups(), batchF)
	}
}

// TestCertifiedTwoDurableIdentitiesOnOneNode: node-1 subscribes to a
// certified class under two durable identities. The publisher sends the
// node one frame per event, not one per identity, and the node
// acknowledges under both: each handler sees each event once, neither
// identity stays owed anything, and once nothing is owed nothing is sent
// again. The node used to acknowledge under one identity only, so the
// other's whole backlog came back every redelivery tick, for ever. The
// domains run on a fake clock that moves a timer period after each batch
// of events has landed, so that whether an acknowledgement beats a
// retransmission is the protocol's business, not the machine's load.
func TestCertifiedTwoDurableIdentitiesOnOneNode(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 29}),
		addrs: []string{"node-0", "node-1"},
		opts: func(addr string) []govents.Option {
			return []govents.Option{govents.WithDurability(filepath.Join(root, addr))}
		},
		clk: clock.NewFake(time.Unix(0, 0)),
	}
	defer sn.net.Close()
	d0, tap0 := sn.open("node-0")
	d1, _ := sn.open("node-1")
	ids := []string{"desk-a", "desk-b"}
	seen := []*recorder{newRecorder(), newRecorder()}
	for i, id := range ids {
		if _, err := govents.SubscribeDurable(d1, id, func(e chaosTick) { seen[i].record(e.Pub, e.Seq) }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both ads at node-0", func() bool { return d0.RemoteSubscriptionCount() >= 2 })

	const events, batch = 200, 10
	var keys []string
	for i := 0; i < events; i++ {
		if err := d0.Publish(ctx, chaosTick{Pub: "node-0", Seq: i}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tickKey("node-0", i))
		if (i+1)%batch == 0 {
			sn.advance(selfInterval / 4)
		}
	}
	waitFor(t, "every event at both handlers", func() bool { return seen[0].hasAll(keys) && seen[1].hasAll(keys) })
	// Everything is acknowledged once a whole redelivery interval sends
	// nothing: the tick resends whatever either identity is still owed.
	class := streamKey("dace/cert/" + obvent.TypeName(obvent.TypeOf[chaosTick]()))
	dataFrames := func() (n int) {
		for _, key := range tap0.sentTo("node-1") {
			if key == class {
				n++
			}
		}
		return n
	}
	waitFor(t, "the publisher to fall silent", func() bool {
		before := dataFrames()
		sn.advance(3 * selfInterval)
		return dataFrames() == before
	})
	// A backlog that keeps coming back is 200 frames per interval.
	if n := dataFrames(); n > 10*events {
		t.Errorf("%d data frames for %d events to one node", n, events)
	}
	if st := d1.DurableStats(); st.Staged != events || st.StageDups > 10*events {
		t.Errorf("node-1 staged %d events and suppressed %d duplicates, want %d and a few per event at most", st.Staged, st.StageDups, events)
	}
	for i, id := range ids {
		exactlyOnce(t, id, seen[i], "node-0", events)
	}

	// Read the outbox off the disk: neither identity is owed anything.
	sn.net.Crash("node-0")
	if err := d0.Close(ctx); err != nil {
		t.Fatal(err)
	}
	classDir := filepath.Join(root, "node-0", obvent.TypeName(obvent.TypeOf[chaosTick]()))
	ob, err := durable.OpenOutbox(filepath.Join(classDir, "outbox-data"), filepath.Join(classDir, "outbox-meta"), durable.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ob.Close()
	for _, id := range ids {
		if pending, err := ob.Pending(id); err != nil || len(pending) != 0 {
			t.Errorf("%s is still owed %d outbox entries (%v)", id, len(pending), err)
		}
	}
}

// TestCertifiedMixedDurableAndPlainSubscriber: node-1 holds a durable
// and a plain subscription to one certified class. The view lists both
// at node-1, the durable ID and, for the plain one, the node's address,
// and node-1 must acknowledge under each: then each handler sees each
// event once, the publisher's outbox empties, and node-0 falls silent.
// node-1 used to acknowledge under the durable ID alone, so the outbox
// held every event for the address and resent them all every interval,
// for ever.
func TestCertifiedMixedDurableAndPlainSubscriber(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 31}),
		addrs: []string{"node-0", "node-1"},
		opts: func(addr string) []govents.Option {
			if addr == "node-1" {
				return []govents.Option{govents.WithDurability(filepath.Join(root, addr))}
			}
			return nil
		},
		clk: clock.NewFake(time.Unix(0, 0)),
	}
	defer sn.net.Close()
	d0, tap0 := sn.open("node-0")
	d1, _ := sn.open("node-1")
	durableSeen, plainSeen := newRecorder(), newRecorder()
	if _, err := govents.SubscribeDurable(d1, "desk", func(e chaosTick) { durableSeen.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	if _, err := govents.Subscribe(d1, nil, func(e chaosTick) { plainSeen.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both ads at node-0", func() bool { return d0.RemoteSubscriptionCount() >= 2 })

	const events, batch = 100, 10
	var keys []string
	for i := 0; i < events; i++ {
		if err := d0.Publish(ctx, chaosTick{Pub: "node-0", Seq: i}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tickKey("node-0", i))
		if (i+1)%batch == 0 {
			sn.advance(selfInterval / 4)
		}
	}
	class := obvent.TypeName(obvent.TypeOf[chaosTick]())
	waitFor(t, "every event at both handlers and the outbox emptied", func() bool {
		sn.advance(selfInterval / 4)
		return durableSeen.hasAll(keys) && plainSeen.hasAll(keys) && govents.CertifiedOutboxLen(d0, class) == 0
	})
	sent := len(tap0.sentTo("node-1"))
	sn.advance(20 * selfInterval)
	if n := len(tap0.sentTo("node-1")) - sent; n != 0 {
		t.Errorf("node-0 sent node-1 %d frames in 20 retransmit intervals after its outbox emptied, want none", n)
	}
	for who, r := range map[string]*recorder{"the durable handler": durableSeen, "the plain handler": plainSeen} {
		exactlyOnce(t, who, r, "node-0", events)
		if n := r.dups(); n != 0 {
			t.Errorf("%s saw %d duplicates", who, n)
		}
	}
}

// TestSelfSubscribedPublisherWithoutDurability is the same node on the
// in-memory stores of a default domain: the delivered set stands in for
// the staging inbox.
func TestSelfSubscribedPublisherWithoutDurability(t *testing.T) {
	ctx := context.Background()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 23}),
		addrs: []string{"node-0", "node-1"},
		opts:  func(string) []govents.Option { return nil },
	}
	defer sn.net.Close()
	d0, tap0 := sn.open("node-0")
	d1, tap1 := sn.open("node-1")
	here, there := newRecorder(), newRecorder()
	if _, err := govents.Subscribe(d0, nil, func(e chaosTick) { here.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	if _, err := govents.Subscribe(d1, nil, func(e chaosTick) { there.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node-1's ad at node-0", func() bool { return d0.RemoteSubscriptionCount() >= 1 })

	const n = 40
	var keys []string
	for i := 0; i < n; i++ {
		if err := d0.Publish(ctx, chaosTick{Pub: "node-0", Seq: i}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tickKey("node-0", i))
	}
	waitFor(t, "delivery at both", func() bool { return here.hasAll(keys) && there.hasAll(keys) })
	waitFor(t, "outbox acknowledged by both and emptied", func() bool {
		return govents.CertifiedOutboxLen(d0, obvent.TypeName(obvent.TypeOf[chaosTick]())) == 0
	})
	time.Sleep(30 * time.Millisecond) // several redelivery ticks
	sn.net.Settle()
	exactlyOnce(t, "node-0", here, "node-0", n)
	exactlyOnce(t, "node-1", there, "node-0", n)
	if got := tap0.toSelf.Load() + tap1.toSelf.Load(); got != 0 {
		t.Errorf("%d frames addressed to the sender's own address, want none", got)
	}
}

// TestPublisherWithoutLocalSubscriptionStagesNothing is the converse:
// a publisher that is not among its class's subscribers writes its
// outbox and nothing else.
func TestPublisherWithoutLocalSubscriptionStagesNothing(t *testing.T) {
	ctx := context.Background()
	g := chaosGroup(t, 2)
	got := newRecorder()
	if _, err := govents.SubscribeDurable(g.Domain(1), "sub-1", func(e chaosTick) { got.record(e.Pub, e.Seq) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription ad at publisher", func() bool { return g.Domain(0).RemoteSubscriptionCount() >= 1 })
	const n = 20
	var keys []string
	for i := 0; i < n; i++ {
		if err := g.Domain(0).Publish(ctx, chaosTick{Pub: "node-0", Seq: i}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tickKey("node-0", i))
	}
	waitFor(t, "delivery", func() bool { return got.hasAll(keys) })
	if st := g.Domain(0).DurableStats(); st.Staged != 0 || st.Acked != 0 {
		t.Errorf("publisher's inbox: staged %d, acknowledged %d; want an untouched inbox", st.Staged, st.Acked)
	}
	if st := g.Domain(1).DurableStats(); st.Staged != n {
		t.Errorf("subscriber staged %d, want %d", st.Staged, n)
	}
	exactlyOnce(t, "node-1", got, "node-0", n)
}

// TickHeader is a certified class that pricedTick embeds. It is exported
// because the wire leaves off what an unexported embedded type promotes.
type TickHeader struct {
	obvent.Base
	obvent.CertifiedBase
	Pub string
	Seq int
}

// pricedTick is a TickHeader by embedding (implicit declaration, §2.2).
type pricedTick struct {
	TickHeader
	Price float64
}

// TestDurableReplayTakesTheEmbeddedStruct: a durable subscriber of
// TickHeader is delivered pricedTick events as the TickHeader they
// embed, live and, for the events its handler died under, by replay
// once it subscribes again: each event once, in the same view.
func TestDurableReplayTakesTheEmbeddedStruct(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 23}),
		addrs: []string{"node-0"},
		opts: func(addr string) []govents.Option {
			return []govents.Option{govents.WithDurability(filepath.Join(root, addr))}
		},
	}
	defer sn.net.Close()
	d, _ := sn.open("node-0")

	got := newRecorder()
	var crashing atomic.Bool
	subscribe := func() *govents.Subscription {
		t.Helper()
		sub, err := govents.SubscribeDurable(d, "header-sub", func(h TickHeader) {
			if crashing.Load() {
				panic("handler dies before the cursor moves")
			}
			got.record(h.Pub, h.Seq)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	publish := func(seq int) {
		t.Helper()
		if err := d.Publish(ctx, pricedTick{TickHeader: TickHeader{Pub: "node-0", Seq: seq}, Price: float64(seq)}); err != nil {
			t.Fatal(err)
		}
	}

	sub := subscribe()
	publish(0)
	waitFor(t, "the live event", func() bool { return got.has(tickKey("node-0", 0)) })

	crashing.Store(true)
	for seq := 1; seq <= 3; seq++ {
		publish(seq)
	}
	waitFor(t, "three handler deaths", func() bool { return d.Stats().HandlerPanics >= 3 })
	crashing.Store(false)
	if err := sub.Deactivate(); err != nil {
		t.Fatal(err)
	}
	subscribe()
	if st := d.DurableStats(); st.Replayed != 3 {
		t.Errorf("replayed %d events, want the 3 the handler died under", st.Replayed)
	}
	exactlyOnce(t, "node-0", got, "node-0", 4)
}
