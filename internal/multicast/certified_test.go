package multicast

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"govents/internal/durable"
	"govents/internal/netsim"
)

// tapTransport counts the certified data and acknowledgement frames an
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
	if n := int(binary.BigEndian.Uint16(frame)); decodeMessage(frame[2+n:], &m) == nil {
		tt.mu.Lock()
		switch m.Kind {
		case kindCertData:
			tt.data[to]++
			if tt.onData != nil {
				tt.onData(&m)
			}
		case kindCertAck:
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

// pendingAt reports whether the outbox owes consumer the entry at off.
func pendingAt(log *durable.Outbox, consumer string, off uint64) bool {
	pending, _ := log.Pending(consumer)
	for _, e := range pending {
		if e.Offset == off {
			return true
		}
	}
	return false
}

// countingStager is a Stager that deduplicates in memory and counts.
type countingStager struct {
	mu     sync.Mutex
	staged map[string]bool
	calls  int
}

func (s *countingStager) Stage(id, origin string, payload []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.staged == nil {
		s.staged = make(map[string]bool)
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
			opts := fastOpts()
			opts.Logger = slog.New(refused)
			gp := NewCertified(pub.mux, "cls", log, in, pub.record, opts)
			defer gp.Close()
			gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, fastOpts())
			gs.SetDurableIDs([]string{"tenant"})
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
			waitFor(t, 10*time.Second, "delivery at both", func() bool { return pub.count() >= msgs && sub.count() >= msgs })
			waitFor(t, 10*time.Second, "outbox acknowledged and emptied", func() bool { return log.Len() == 0 })
			time.Sleep(4 * fastOpts().RetransmitInterval) // a redelivery would land by now
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

// TestCertifiedRedeliveryWaitsAFullInterval drives the redelivery tick
// by hand against a subscriber that never acknowledges: a tick resends
// what was first sent before the previous tick, not what left since.
func TestCertifiedRedeliveryWaitsAFullInterval(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub, tap := newTapNode(t, net, "pub")
	newTestNode(t, net, "sub")
	gp := NewCertified(pub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), pub.record,
		Options{RetransmitInterval: time.Hour}) // the timer never fires: the test is the timer
	defer gp.Close()
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "tenant", Addr: "sub"}}); err != nil {
		t.Fatal(err)
	}
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
	step("the tick m1 left in", gp.redeliver, 1)
	step("publishing m2", broadcast("m2"), 2)
	step("the next tick (m1 is due, m2 is not)", gp.redeliver, 3)
	step("the tick after (both due)", gp.redeliver, 5)
	step("publishing m3", broadcast("m3"), 6)
	step("one more tick (m1, m2)", gp.redeliver, 8)
}

// TestCertifiedRunAcksUnderLoss drives both timers by hand over a
// network that loses and duplicates frames, data and acknowledgements
// alike: every event is delivered once and the outbox drains; the
// subscriber acknowledges in batches (an acknowledgement per ackEvery
// frames received, which duplication makes at most two per ackEvery
// sent, and one per timer period); and the publisher resends only what
// it has no acknowledgement of, which is at most what the lost frames
// carried or named.
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
				if !pendingAt(log, "sub", m.Seq) {
					resentAcked.Add(1)
				}
			}
			opts := Options{RetransmitInterval: time.Hour} // the timers never fire: the test is the timers
			gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, opts)
			defer gp.Close()
			gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), sub.record, opts)
			defer gs.Close()
			if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "sub", Addr: "sub"}}); err != nil {
				t.Fatal(err)
			}

			const rounds, perRound = 10, 40
			periods := 0
			period := func() { // acknowledgements first, so that a redelivery finds them booked
				periods++
				gs.tick()
				net.Settle()
				gp.tick()
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
			waitFor(t, 10*time.Second, "the delivery queue to drain", func() bool { return sub.count() >= msgs })
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
				t.Errorf("%d data frames sent for offsets the outbox had an acknowledgement of", n)
			}
			if limit := msgs + ackEvery*int(dropped); data > limit {
				t.Errorf("%d data frames for %d events with %d frames lost, want at most %d", data, msgs, dropped, limit)
			}
		})
	}
}

// TestCertifiedAckOfAnotherEpochRetiresNothing: offsets are an
// incarnation's (an in-memory outbox numbers from 1 again after a
// restart), so an acknowledgement addressed to another epoch is dropped,
// as is one that names no run; the same runs under the group's own
// epoch retire what they name.
func TestCertifiedAckOfAnotherEpochRetiresNothing(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub := newTestNode(t, net, "pub")
	sub := newTestNode(t, net, "sub") // runs no group: the test is the subscriber
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
	all := appendRanges(nil, 0, []seqRange{{1, 3}})
	for _, ack := range []message{
		{Kind: kindCertAck, Origin: "tenant", Epoch: gp.epoch - 1, Payload: all},
		{Kind: kindCertAck, Origin: "tenant", Epoch: gp.epoch + 1, Payload: all},
		{Kind: kindCertAck, Origin: "tenant", Payload: all},
		{Kind: kindCertAck, Origin: "tenant", Epoch: gp.epoch},
		{Kind: kindCertAck, Origin: "tenant", Epoch: gp.epoch, Payload: []byte{0, 0}}, // a zero gap: malformed
		{Kind: kindCertAck, Origin: "nobody", Epoch: gp.epoch, Payload: all},
	} {
		if err := sub.mux.sendMessage("pub", "cls", &ack); err != nil {
			t.Fatal(err)
		}
		if n := owed(); n != 3 {
			t.Fatalf("after %+v: %d entries owed, want all 3", ack, n)
		}
	}
	ack := message{Kind: kindCertAck, Origin: "tenant", Epoch: gp.epoch, Payload: appendRanges(nil, 0, []seqRange{{1, 1}, {3, 9}})}
	if err := sub.mux.sendMessage("pub", "cls", &ack); err != nil {
		t.Fatal(err)
	}
	if n := owed(); n != 1 {
		t.Fatalf("after the group's own epoch acknowledged 1 and 3..9: %d entries owed, want entry 2 alone", n)
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
	gp := NewCertified(pub.mux, "cls", pubLog, pubDedup, pub.record, fastOpts())
	defer gp.Close()
	var atSub atomic.Int64
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(),
		func(string, []byte) { atSub.Add(1) }, fastOpts())
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
	waitFor(t, 30*time.Second, "all delivered and acknowledged", func() bool {
		return atSub.Load() >= total && pubLog.Len() == 0
	})
	time.Sleep(4 * fastOpts().RetransmitInterval) // two ticks empty the set of the recently sent
	gp.Close()                                    // the timer stops: the state can be read

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
