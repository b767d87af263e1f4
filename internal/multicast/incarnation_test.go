package multicast

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"govents/internal/netsim"
)

// TestIncarnationStragglersOfARestartedSender: a FIFO publisher restarts
// (a new process at its address: a new endpoint, mux and group, and a
// later epoch) while 50 frames of its first incarnation, most of them
// short, are still in flight on a network that delays each by 1 to
// 8 ms. The receiver numbered the first incarnation 1 and numbers the
// second 2 when its first spelled frame lands; a straggler's short
// frame names 1 and draws unknown, a straggler's spelled frame names the
// older epoch, and neither reaches the group. So what the receiver
// delivers is some of the first incarnation's events, in order, then
// every event of the second once and in order, and nothing of the
// first after the second's first. Fails if a short frame is resolved by
// its key alone: a straggler is taken for the live incarnation's frame
// with its link sequence, and the live frame it displaced is dropped as
// a duplicate.
func TestIncarnationStragglersOfARestartedSender(t *testing.T) {
	net := netsim.New(netsim.Config{MinLatency: time.Millisecond, MaxLatency: 8 * time.Millisecond, Seed: 5})
	defer net.Close()
	const stream = "dace/fifo/restart.Class"
	members := []string{"a", "b"}
	sub := newTestNode(t, net, "b")
	gb := NewFIFO(sub.mux, stream, sub.record, fastOpts())
	defer gb.Close()
	gb.SetMembers(members)

	epA, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	muxA := NewMux(epA)
	first := NewFIFO(muxA, stream, func(string, []byte) {}, fastOpts())
	first.SetMembers(members)
	publish := func(g *FIFO, prefix string, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := g.BroadcastTo([]string{"b"}, []byte(fmt.Sprintf("%s-%03d", prefix, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(first, "old", 0, 5)
	waitFor(t, 5*time.Second, "the first incarnation's handshake", func() bool { return knows(muxA, "b", stream) })
	publish(first, "old", 5, 55) // short, and in flight across the restart
	_ = first.Close()
	_ = epA.Close()

	epA, err = net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	second := NewFIFO(NewMux(epA), stream, func(string, []byte) {}, fastOpts())
	defer second.Close()
	second.SetMembers(members)
	const events = 50
	publish(second, "new", 0, events)
	waitFor(t, 10*time.Second, "the second incarnation's events", func() bool {
		n := 0
		for _, p := range sub.payloads() {
			if strings.HasPrefix(p, "new-") {
				n++
			}
		}
		return n >= events
	})
	net.Settle()

	got := sub.payloads()
	firstNew := slices.IndexFunc(got, func(p string) bool { return strings.HasPrefix(p, "new-") })
	old, live := got[:firstNew], got[firstNew:]
	if !slices.IsSorted(old) || len(slices.Compact(slices.Clone(old))) != len(old) {
		t.Errorf("the first incarnation's events were delivered out of order or twice: %q", old)
	}
	var want []string
	for i := range events {
		want = append(want, fmt.Sprintf("new-%03d", i))
	}
	if !slices.Equal(live, want) {
		t.Errorf("from the second incarnation's first event on, the receiver delivered %q, want %q", live, want)
	}
	t.Logf("%d of the first incarnation's 55 events were delivered before the restart took over", len(old))
}

// TestIncarnationRestartedReceiverAnswersUnknown: a receiver restarts
// (a new endpoint and mux at its address, and its group made anew) after
// it numbered the publisher's incarnation. The publisher's next frame is
// short and names a number the new mux never gave: the receiver answers
// unknown and drops it, the publisher forgets the confirmation, and its
// retransmission, one RetransmitInterval later, goes spelled and is
// delivered. So the event is delivered on its second frame: one short,
// one spelled. (Its acknowledgement may yet cost a resend: one that
// overtakes the receiver's known frame names a number the publisher has
// not been given, and is ignored.) Fails if the receiver drops the short
// frame unanswered, or if the publisher ignores an unknown that names
// its number: the frame is resent short for ever and never delivered.
func TestIncarnationRestartedReceiverAnswersUnknown(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	const stream = "dace/fifo/restart.Class"
	members := []string{"a", "b"}
	opts := Options{RetransmitInterval: 100 * time.Millisecond}
	epA, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	tapA := newFormTap(epA)
	muxA := NewMux(tapA)
	pub := NewFIFO(muxA, stream, func(string, []byte) {}, opts)
	defer pub.Close()
	pub.SetMembers(members)

	first := newTestNode(t, net, "b")
	g := NewFIFO(first.mux, stream, first.record, opts)
	g.SetMembers(members)
	if err := pub.BroadcastTo([]string{"b"}, []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the first delivery and its acknowledgement", func() bool {
		return first.count() == 1 && pub.Outstanding() == 0 && knows(muxA, "b", stream)
	})
	_ = g.Close()
	_ = first.mux.tr.Close()

	epB, err := net.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	tapB := newFormTap(epB)
	second := &testNode{mux: NewMux(tapB)}
	g = NewFIFO(second.mux, stream, second.record, opts)
	defer g.Close()
	g.SetMembers(members)
	net.Settle()
	before := tapA.sent("b", frameNumbered)
	if err := pub.BroadcastTo([]string{"b"}, []byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the delivery after the restart", func() bool { return second.count() == 1 })
	short, spelled := tapA.sent("b", frameNumbered)-before, tapA.sent("b", frameIncarnate)
	if short != 1 || spelled != 2 {
		t.Errorf("the event was delivered after %d short frames and %d spelled ones in all, want 1 and 2 (the publisher's first frame, and one retransmission)", short, spelled)
	}
	waitFor(t, 5*time.Second, "its acknowledgement", func() bool { return pub.Outstanding() == 0 })
	net.Settle()
	if got := second.payloads(); !slices.Equal(got, []string{"after"}) {
		t.Errorf("the restarted receiver delivered %q, want [after]", got)
	}
	if n := tapB.sent("a", frameUnknown); n != 1 {
		t.Errorf("the restarted receiver answered %d frames with unknown, want 1", n)
	}
}

// TestIncarnationAckOfADeadNumberIsIgnored: a publisher's group restarts
// on its mux (a later epoch), and the receiver numbers its incarnations
// 1 and 2. An acknowledgement of everything the live incarnation sent,
// naming the dead incarnation's number, leaves the live one's log alone;
// the same acknowledgement naming 2 empties it. The receiver is a bare
// mux with the stream open, which numbers and never acknowledges, so
// the test's are the only acknowledgements. Fails if a sender accepts an
// acknowledgement without checking the number it names.
func TestIncarnationAckOfADeadNumberIsIgnored(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	const stream = "dace/fifo/acked.Class"
	opts := Options{RetransmitInterval: time.Hour}
	sub := newTestNode(t, net, "b")
	sub.mux.Handle(stream, func(string, []byte) {})
	pub := newTestNode(t, net, "a")
	dead := NewFIFO(pub.mux, stream, func(string, []byte) {}, opts)
	dead.SetMembers([]string{"a", "b"})
	if err := dead.BroadcastTo([]string{"b"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	_ = dead.Close()
	live := NewFIFO(pub.mux, stream, func(string, []byte) {}, opts)
	defer live.Close()
	live.SetMembers([]string{"a", "b"})
	for range 3 {
		if err := live.BroadcastTo([]string{"b"}, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	net.Settle()
	if num := number(pub.mux, live.stream, "b"); num != 2 {
		t.Fatalf("the receiver numbered the live incarnation %d, want 2", num)
	}
	for _, inc := range []uint64{1, 3, 0} {
		ack := message{Kind: kindAck, Inc: inc, Seq: 3}
		if err := sub.mux.sendMessage("a", newStream(stream, 0), &ack); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		if n := live.Outstanding(); n != 3 {
			t.Fatalf("after an acknowledgement naming incarnation %d, the live incarnation owes %d broadcasts, want 3", inc, n)
		}
	}
	ack := message{Kind: kindAck, Inc: 2, Seq: 3}
	if err := sub.mux.sendMessage("a", newStream(stream, 0), &ack); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if n := live.Outstanding(); n != 0 {
		t.Errorf("after the live incarnation's acknowledgement it owes %d broadcasts, want 0", n)
	}
}
