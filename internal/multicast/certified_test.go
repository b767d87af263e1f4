package multicast

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"govents/internal/codec"
	"govents/internal/durable"
	"govents/internal/netsim"
	"govents/internal/seqset"
)

// tapTransport counts the link data and acknowledgement frames an
// endpoint sends, by destination, and shows each data frame to onData.
type tapTransport struct {
	netsim.Transport
	onData func(m *message)
	mu     sync.Mutex
	data   map[string]int
	acks   map[string]int
}

func newTapNode(t *testing.T, net *netsim.Network, addr string) (*testNode, *tapTransport) {
	t.Helper()
	ep, err := net.NewEndpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapTransport{Transport: ep, data: make(map[string]int), acks: make(map[string]int)}
	return &testNode{mux: NewMux(tap)}, tap
}

func (tt *tapTransport) Send(to string, frame []byte) error {
	var m message
	if decodeFrame(frame, &m) == nil {
		tt.mu.Lock()
		switch m.Kind {
		case kindData:
			tt.data[to]++
			if tt.onData != nil {
				tt.onData(&m)
			}
		case kindAck:
			tt.acks[to]++
		}
		tt.mu.Unlock()
	}
	return tt.Transport.Send(to, frame)
}

func (tt *tapTransport) acksTo(addr string) int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.acks[addr]
}

func (tt *tapTransport) dataTo(addr string) int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.data[addr]
}

// ackRecords is how many acknowledgement records the outbox's meta log
// took: its appends beyond one registration per consumer.
func ackRecords(t *testing.T, log *durable.Outbox) int {
	t.Helper()
	consumers, err := log.Consumers()
	if err != nil {
		t.Fatal(err)
	}
	_, meta := log.Stats()
	return int(meta.Appends) - len(consumers)
}

// refusals counts the acknowledgements a Certified's outbox refused,
// which it logs (at any level) and does not return.
type refusals struct{ n atomic.Int64 }

func (r *refusals) Enabled(context.Context, slog.Level) bool { return true }
func (r *refusals) WithAttrs([]slog.Attr) slog.Handler       { return r }
func (r *refusals) WithGroup(string) slog.Handler            { return r }
func (r *refusals) Handle(_ context.Context, rec slog.Record) error {
	if strings.Contains(rec.Message, "acknowledgement failed") || strings.Contains(rec.Message, "acknowledgement not booked") {
		r.n.Add(1)
	}
	return nil
}

// pending reports whether the outbox owes consumer the entry with ID id.
func pending(log *durable.Outbox, consumer, id string) bool {
	owed, _ := log.Pending(consumer)
	for _, e := range owed {
		if e.ID == id {
			return true
		}
	}
	return false
}

// countingStager is a Stager that deduplicates in memory and counts.
type countingStager struct {
	mu     sync.Mutex
	staged map[codec.Ident]bool
	calls  int
}

func (s *countingStager) StageIdent(id codec.Ident, origin string, payload []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.staged == nil {
		s.staged = make(map[codec.Ident]bool)
	}
	fresh := !s.staged[id]
	s.staged[id] = true
	return fresh, nil
}

func (s *countingStager) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// TestCertifiedPublisherWithoutLocalSubscriber: a publisher whose class
// has subscribers elsewhere only does nothing on its own behalf — no
// acknowledgement in its outbox (there used to be one per publish, under
// an identity the outbox had never registered, whose error was thrown
// away), nothing staged, nothing in the delivered set, no local
// delivery, no frame to its own address.
func TestCertifiedPublisherWithoutLocalSubscriber(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("stager=%v", staged), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			pub, tap := newTapNode(t, net, "pub")
			newTestNode(t, net, "sub") // reachable, runs no group: it never acknowledges
			log := durable.NewMemOutbox()
			dedup := durable.NewMemInbox()
			stager := &countingStager{}
			in := Stager(dedup)
			if staged {
				in = stager
			}
			refused := &refusals{}
			gp := NewCertified(pub.mux, "cls", log, in, pub.record, Options{RetransmitInterval: time.Hour, Logger: slog.New(refused)})
			defer gp.Close()
			if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant", Addr: "sub"}}); err != nil {
				t.Fatal(err)
			}
			const msgs = 100
			for i := 0; i < msgs; i++ {
				if err := gp.Broadcast([]byte("m")); err != nil {
					t.Fatal(err)
				}
			}
			net.Settle()
			if got := tap.dataTo("sub"); got != msgs {
				t.Errorf("%d data frames to the subscriber, want %d", got, msgs)
			}
			if got := tap.dataTo("pub"); got != 0 {
				t.Errorf("%d data frames to the publisher's own address, want none", got)
			}
			if a, e := ackRecords(t, log), refused.n.Load(); a != 0 || e != 0 {
				t.Errorf("publisher booked %d acknowledgements of its own (%d refused), want none", a, e)
			}
			if n := dedup.Stats().Staged; n != 0 {
				t.Errorf("delivered set holds %d IDs of events never delivered here", n)
			}
			if n := stager.count(); n != 0 {
				t.Errorf("%d events staged at a node that does not subscribe", n)
			}
			if n := pub.count(); n != 0 {
				t.Errorf("%d local deliveries at a node that does not subscribe", n)
			}
		})
	}
}

// TestCertifiedSelfSubscribedPublisher: a node among its own class's
// subscribers records, acknowledges and delivers each of its events
// once, under every identity it subscribes with, and sends itself
// nothing; the subscriber elsewhere is served as ever.
func TestCertifiedSelfSubscribedPublisher(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("stager=%v", staged), func(t *testing.T) {
			net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 5})
			defer net.Close()
			pub, tap := newTapNode(t, net, "pub")
			sub := newTestNode(t, net, "sub")
			log := durable.NewMemOutbox()
			dedup := durable.NewMemInbox()
			stager := &countingStager{}
			in := Stager(dedup)
			if staged {
				in = stager
			}
			refused := &refusals{}
			subOpts, clk := fakeOpts()
			opts := subOpts
			opts.Logger = slog.New(refused)
			gp := NewCertified(pub.mux, "cls", log, in, pub.record, opts)
			defer gp.Close()
			gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, subOpts)
			ackUnder(t, gs, "sub", "tenant")
			defer gs.Close()
			err := gp.SetSubscribers([]CertSubscriber{
				{DurableID: "tenant", Addr: "sub"},
				{DurableID: "self-a", Addr: "pub"},
				{DurableID: "self-b", Addr: "pub"},
			})
			if err != nil {
				t.Fatal(err)
			}
			const msgs = 50
			for i := 0; i < msgs; i++ {
				if err := gp.Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			advanceUntil(t, net, clk, "delivery at both", func() bool { return pub.count() >= msgs && sub.count() >= msgs })
			advanceUntil(t, net, clk, "outbox acknowledged and emptied", func() bool { return log.Len() == 0 })
			advance(net, clk, 4*opts.RetransmitInterval) // a redelivery would land by now
			if pub.count() != msgs || sub.count() != msgs {
				t.Errorf("delivered %d here and %d there, want exactly %d each", pub.count(), sub.count(), msgs)
			}
			if got := tap.dataTo("pub"); got != 0 {
				t.Errorf("%d data frames to the publisher's own address, want none", got)
			}
			if e := refused.n.Load(); e != 0 {
				t.Errorf("%d acknowledgements refused by the outbox", e)
			}
			for _, id := range []string{"self-a", "self-b", "tenant"} {
				if pending, err := log.Pending(id); err != nil || len(pending) != 0 {
					t.Errorf("%s is still owed %d entries (%v)", id, len(pending), err)
				}
			}
			if staged {
				if n := stager.count(); n != msgs {
					t.Errorf("%d stagings for %d events", n, msgs)
				}
			} else if n := dedup.Stats().Staged; n != msgs {
				t.Errorf("delivered set holds %d IDs for %d events", n, msgs)
			}
		})
	}
}

// TestCertifiedRedeliveryWaitsAFullInterval moves the link's clock
// against a subscriber that never acknowledges, a RetransmitInterval
// (ticksPerInterval periods) at a time: an interval resends what has
// been out for a whole one, not what left since the one before.
func TestCertifiedRedeliveryWaitsAFullInterval(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub, tap := newTapNode(t, net, "pub")
	newTestNode(t, net, "sub")
	opts, clk := fakeOpts()
	gp := NewCertified(pub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), pub.record, opts)
	defer gp.Close()
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}
	redeliver := func() { clk.Advance(opts.RetransmitInterval) }
	step := func(what string, do func(), want int) {
		t.Helper()
		do()
		if got := tap.dataTo("sub"); got != want {
			t.Fatalf("after %s: %d data frames sent, want %d", what, got, want)
		}
	}
	broadcast := func(p string) func() {
		return func() {
			if err := gp.Broadcast([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("publishing m1", broadcast("m1"), 1)
	step("the interval m1 left in", redeliver, 1)
	step("publishing m2", broadcast("m2"), 2)
	step("the next interval (m1 is due, m2 is not)", redeliver, 3)
	step("the interval after (both due)", redeliver, 5)
	step("publishing m3", broadcast("m3"), 6)
	step("one more interval (m1, m2)", redeliver, 8)
}

// TestCertifiedRunAcksUnderLoss moves both timers' clock a period at a
// time over a network that loses and duplicates frames, data and
// acknowledgements alike: every event is delivered once and the outbox
// drains; the subscriber acknowledges in batches (an acknowledgement per
// ackEvery frames received, which duplication makes at most two per
// ackEvery sent, and one per timer period); and the publisher resends
// only what it has no acknowledgement of, which is at most what the lost
// frames carried or named.
func TestCertifiedRunAcksUnderLoss(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := netsim.New(netsim.Config{LossRate: 0.15, DupRate: 0.1, Seed: seed})
			defer net.Close()
			pub, pubTap := newTapNode(t, net, "pub")
			sub, subTap := newTapNode(t, net, "sub")
			log := durable.NewMemOutbox()
			var resentAcked atomic.Int64
			pubTap.onData = func(m *message) {
				if !pending(log, "sub", m.ID) {
					resentAcked.Add(1)
				}
			}
			// A clock per node: the subscriber's moves first in a period.
			pubOpts, pubClk := fakeOpts()
			subOpts, subClk := fakeOpts()
			gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, pubOpts)
			defer gp.Close()
			gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, subOpts)
			defer gs.Close()
			if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "sub", Addr: "sub"}}); err != nil {
				t.Fatal(err)
			}

			const rounds, perRound = 10, 40
			periods := 0
			period := func() { // acknowledgements first, so that a redelivery finds them booked
				periods++
				subClk.Advance(fakePeriod)
				net.Settle()
				pubClk.Advance(fakePeriod)
				net.Settle()
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					if err := gp.Broadcast([]byte(fmt.Sprintf("m%d", r*perRound+i))); err != nil {
						t.Fatal(err)
					}
				}
				net.Settle()
				period()
			}
			for gp.OutboxLen() > 0 && periods < 400 {
				period()
			}

			const msgs = rounds * perRound
			if gp.OutboxLen() != 0 {
				t.Fatalf("outbox still holds %d of %d entries after %d periods", gp.OutboxLen(), msgs, periods)
			}
			waitFor(t, 10*time.Second, "every event delivered", func() bool { return sub.count() >= msgs })
			seen := make(map[string]int)
			for _, p := range sub.payloads() {
				seen[p]++
			}
			if len(seen) != msgs || sub.count() != msgs {
				t.Errorf("delivered %d events, %d distinct; want each of %d once", sub.count(), len(seen), msgs)
			}
			data, acks := pubTap.dataTo("sub"), subTap.acksTo("pub")
			_, _, dropped, _ := net.Stats()
			t.Logf("%d events: %d data frames, %d acknowledgements, %d frames lost, %d periods", msgs, data, acks, dropped, periods)
			if limit := data/8 + periods + 1; acks > limit {
				t.Errorf("%d acknowledgement frames for %d data frames over %d periods, want at most %d", acks, data, periods, limit)
			}
			if n := resentAcked.Load(); n != 0 {
				t.Errorf("%d data frames sent for entries the outbox had an acknowledgement of", n)
			}
			if limit := msgs + ackEvery*int(dropped); data > limit {
				t.Errorf("%d data frames for %d events with %d frames lost, want at most %d", data, msgs, dropped, limit)
			}
		})
	}
}

// TestCertifiedAckOfAnotherEpochRetiresNothing: link sequences are an
// incarnation's (a restarted publisher's links number from 1 again), so
// an acknowledgement naming another incarnation than the number the
// subscriber's node gave the group's epoch, or none, is dropped, as is
// one that names no run; the same runs under that number retire the
// entries the link sent at those sequences (here offsets 1 and 3).
func TestCertifiedAckOfAnotherEpochRetiresNothing(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub := newTestNode(t, net, "sub")              // runs no group: the test is the subscriber
	sub.mux.Handle("cls", func(string, []byte) {}) // but numbers the publisher's incarnation
	log := durable.NewMemOutbox()
	gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, Options{RetransmitInterval: time.Hour})
	defer gp.Close()
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := gp.Broadcast([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	owed := func() int {
		t.Helper()
		net.Settle()
		pending, err := log.Pending("tenant")
		if err != nil {
			t.Fatal(err)
		}
		return len(pending)
	}
	net.Settle()
	num := number(gp.mux, gp.stream, "sub")
	if num == 0 {
		t.Fatal("the subscriber's node numbered no incarnation of the group")
	}
	all := seqset.AppendRuns(nil, 0, []seqset.Run{{Lo: 1, Hi: 3}})
	for _, ack := range []message{
		{Kind: kindAck, Origin: "tenant", Inc: num + 1, Payload: all},
		{Kind: kindAck, Origin: "tenant", Payload: all},
		{Kind: kindAck, Origin: "tenant", Inc: num},
		{Kind: kindAck, Origin: "tenant", Inc: num, Payload: []byte{0, 0}}, // a zero gap: malformed
		{Kind: kindAck, Origin: "nobody", Inc: num, Payload: all},
	} {
		if err := sub.mux.sendMessage("pub", newStream("cls", 0), &ack); err != nil {
			t.Fatal(err)
		}
		if n := owed(); n != 3 {
			t.Fatalf("after %+v: %d entries owed, want all 3", ack, n)
		}
	}
	ack := message{Kind: kindAck, Origin: "tenant", Inc: num, Payload: seqset.AppendRuns(nil, 0, []seqset.Run{{Lo: 1, Hi: 1}, {Lo: 3, Hi: 9}})}
	if err := sub.mux.sendMessage("pub", newStream("cls", 0), &ack); err != nil {
		t.Fatal(err)
	}
	if n := owed(); n != 1 {
		t.Fatalf("after the group's own incarnation acknowledged 1 and 3..9: %d entries owed, want entry 2 alone", n)
	}
}

// TestCertifiedPublisherStateBoundedByInFlight publishes 20 000 events
// with at most a window of them in flight, to a subscriber elsewhere
// and none here, without a staging inbox: afterwards the publisher
// holds nothing that grew with the events published. Its delivered set
// used to gain every ID it published, and its outbox kept every entry
// until somebody called GC, which nobody outside the tests did.
func TestCertifiedPublisherStateBoundedByInFlight(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 17})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub := newTestNode(t, net, "sub")
	pubLog, pubDedup := durable.NewMemOutbox(), durable.NewMemInbox()
	opts, clk := fakeOpts()
	gp := NewCertified(pub.mux, "cls", pubLog, pubDedup, pub.record, opts)
	defer gp.Close()
	var atSub atomic.Int64
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(),
		func(string, []byte) { atSub.Add(1) }, opts)
	defer gs.Close()
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "sub", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}

	const total, window = 20_000, 256
	payload := []byte("m")
	for i := int64(0); i < total; i++ {
		for i-atSub.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		if err := gp.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody calls GC: the outbox retires an entry at the acknowledgement
	// that completes it.
	advanceUntil(t, net, clk, "all delivered and acknowledged", func() bool {
		return atSub.Load() >= total && pubLog.Len() == 0
	})
	advance(net, clk, 4*opts.RetransmitInterval) // two ticks empty the set of the recently sent
	gp.Close()                                   // the timer stops: the state can be read

	if n := pubDedup.Stats().Staged; n != 0 {
		t.Errorf("publisher's delivered set holds %d IDs after %d events it never delivered", n, total)
	}
	if n := stateSize(reflect.ValueOf(gp), map[unsafe.Pointer]bool{}); n > 4*window {
		t.Errorf("publisher holds %d entries after %d events, want at most %d", n, total, 4*window)
	}
	if atSub.Load() != total {
		t.Errorf("subscriber delivered %d, want exactly %d", atSub.Load(), total)
	}
}

// ackGate loses every acknowledgement its endpoint sends while shut.
type ackGate struct {
	netsim.Transport
	shut atomic.Bool
}

func (a *ackGate) Send(to string, frame []byte) error {
	var m message
	if a.shut.Load() && decodeFrame(frame, &m) == nil && m.Kind == kindAck {
		return nil
	}
	return a.Transport.Send(to, frame)
}

// TestCertifiedInOrderAcrossPublisherRestart: over a network that loses
// and duplicates a fifth of the frames and delays each by up to 2 ms, a
// certified subscriber delivers one publisher's events exactly once and
// in publish order, across a publisher restart over an outbox on disk.
// No acknowledgement reaches the first incarnation, so the second, a new
// link, starts by resending all it published, which the subscriber has
// staged and delivered already, and numbers its own events on from
// there. Fails if a certified link delivers in arrival order.
func TestCertifiedInOrderAcrossPublisherRestart(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.2, DupRate: 0.2, MaxLatency: 2 * time.Millisecond, Seed: 31})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	ep, err := net.NewEndpoint("sub")
	if err != nil {
		t.Fatal(err)
	}
	gate := &ackGate{Transport: ep}
	sub := &testNode{mux: NewMux(gate)}
	opts, clk := fakeOpts()
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, opts)
	defer gs.Close()
	dir := t.TempDir()
	var want []string
	start := func() (*Certified, *durable.Outbox) {
		t.Helper()
		log, err := durable.OpenOutbox(filepath.Join(dir, "data"), filepath.Join(dir, "meta"), durable.SegmentConfig{Sync: durable.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, opts)
		if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "sub", Addr: "sub"}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			p := fmt.Sprintf("m%03d", len(want))
			if err := gp.Broadcast([]byte(p)); err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
		return gp, log
	}

	gate.shut.Store(true)
	gp, log := start()
	advanceUntil(t, net, clk, "the first incarnation's events", func() bool { return sub.count() >= len(want) })
	if err := gp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	gate.shut.Store(false)
	gp, log = start()
	defer log.Close()
	defer gp.Close()
	advanceUntil(t, net, clk, "every event", func() bool { return sub.count() >= len(want) })
	advanceUntil(t, net, clk, "the outbox acknowledged and emptied", func() bool { return gp.OutboxLen() == 0 })
	advance(net, clk, 4*opts.RetransmitInterval) // a redelivery would land by now
	if got := sub.payloads(); !slices.Equal(got, want) {
		t.Errorf("delivered %d events, want each of %d once and in publish order; first out of place at %d",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestCertifiedIdentityMovedOntoAPassedLink: identity y acknowledges
// m00..m49 at node a and moves to node b, whose link then carries only
// m50..m59; identity z, owed all sixty at a node that never answers,
// moves onto b too. b's node must then stage and deliver m00..m49 as
// well, and the outbox may retire them only once it has: b's link
// already passed the numbers those entries had when y was owed them,
// and an acknowledgement of that stretch names none of them.
func TestCertifiedIdentityMovedOntoAPassedLink(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 7})
	defer net.Close()
	pub, a, b := newTestNode(t, net, "pub"), newTestNode(t, net, "a"), newTestNode(t, net, "b")
	newTestNode(t, net, "away") // reachable, runs no group: it never acknowledges
	log := durable.NewMemOutbox()
	opts, clk := fakeOpts()
	gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, opts)
	defer gp.Close()
	ga := NewCertified(a.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), a.record, opts)
	defer ga.Close()
	gb := NewCertified(b.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), b.record, opts)
	defer gb.Close()
	ackUnder(t, ga, "a", "y")
	ackUnder(t, gb, "b", "y")
	var want []string
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("m%02d", len(want))
			if err := gp.Broadcast([]byte(p)); err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
	}
	subscribe := func(subs ...CertSubscriber) {
		t.Helper()
		if err := gp.SetSubscribers(subs); err != nil {
			t.Fatal(err)
		}
	}
	owed := func(id string) int {
		pending, _ := log.Pending(id)
		return len(pending)
	}

	subscribe(CertSubscriber{"y", "a"}, CertSubscriber{"z", "away"})
	publish(50)
	advanceUntil(t, net, clk, "y served at a", func() bool { return a.count() == 50 && owed("y") == 0 })
	subscribe(CertSubscriber{"y", "b"}, CertSubscriber{"z", "away"})
	publish(10)
	advanceUntil(t, net, clk, "y served at b", func() bool { return b.count() == 10 && owed("y") == 0 })
	ackUnder(t, gb, "b", "y", "z")
	subscribe(CertSubscriber{"y", "b"}, CertSubscriber{"z", "b"})
	advanceUntil(t, net, clk, "the outbox acknowledged and emptied", func() bool { return log.Len() == 0 })
	advance(net, clk, 4*opts.RetransmitInterval) // a redelivery would land by now
	got := b.payloads()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("b delivered %d events, want each of the %d z was owed once: %v", len(got), len(want), got)
	}
}

// ackUnder gives a subscriber's group at addr the view of itself that
// lists ids at addr: the identities it acknowledges under.
func ackUnder(t *testing.T, g *Certified, addr string, ids ...string) {
	t.Helper()
	subs := make([]CertSubscriber, len(ids))
	for i, id := range ids {
		subs[i] = CertSubscriber{DurableID: id, Addr: addr}
	}
	if err := g.SetSubscribers(subs); err != nil {
		t.Fatal(err)
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
