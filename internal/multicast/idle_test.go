package multicast

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"govents/internal/netsim"
)

// idleGroups opens n FIFO groups on each of a and b, both nodes members
// of each, and returns them.
func idleGroups(t *testing.T, a, b *testNode, n int, opts Options) []Group {
	t.Helper()
	var groups []Group
	for i := range n {
		for _, node := range []*testNode{a, b} {
			g := NewFIFO(node.mux, fmt.Sprintf("cls-%d", i), node.record, opts)
			g.SetMembers([]string{"a", "b"})
			t.Cleanup(func() { _ = g.Close() })
			groups = append(groups, g)
		}
	}
	return groups
}

// TestIdleGroupsFireNoTimer: two nodes run 200 FIFO groups each, and
// every group broadcasts once. Once that traffic has settled (a period
// passes in which no timer fires), ten seconds of fake time fire no
// timer and send no frame: a link's timer runs only while it owes a
// frame or an acknowledgement.
func TestIdleGroupsFireNoTimer(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a, b := newTestNode(t, net, "a"), newTestNode(t, net, "b")
	opts, clk := fakeOpts()
	const n = 200
	for _, g := range idleGroups(t, a, b, n, opts) {
		if err := g.Broadcast([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	advanceUntil(t, net, clk, "every broadcast delivered and the timers idle", func() bool {
		fired := clk.Fired()
		clk.Advance(fakePeriod)
		net.Settle()
		return a.count() == 2*n && b.count() == 2*n && clk.Fired() == fired
	})
	fired := clk.Fired()
	sent, _, _, _ := net.Stats()
	clk.Advance(10 * time.Second)
	net.Settle()
	if n := clk.Fired() - fired; n != 0 {
		t.Errorf("idle groups fired %d timer callbacks in 10 s", n)
	}
	if now, _, _, _ := net.Stats(); now != sent {
		t.Errorf("idle groups sent %d frames in 10 s", now-sent)
	}
}

// TestIdleGroupsAddNoGoroutine: on the wall clock, two nodes running 200
// idle FIFO groups each run no more goroutines than with one group
// each. A group used to run a ticker goroutine of its own.
func TestIdleGroupsAddNoGoroutine(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a, b := newTestNode(t, net, "a"), newTestNode(t, net, "b")
	idleGroups(t, a, b, 1, fastOpts())
	base := runtime.NumGoroutine()
	for i := range 199 {
		for _, node := range []*testNode{a, b} {
			g := NewFIFO(node.mux, fmt.Sprintf("more-%d", i), node.record, fastOpts())
			g.SetMembers([]string{"a", "b"})
			defer g.Close()
		}
	}
	waitFor(t, 5*time.Second, fmt.Sprintf("at most the %d goroutines of one group per node", base), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestReliableAckPeriodsSurviveIdleTimer: a receiver's timer stops when
// it owes nothing, but its periods are the protocol's. A lone frame after
// a quiet spell is acknowledged at once; a frame every half period costs
// one acknowledgement per period, not two, because a period whose tick
// sent an acknowledgement batches the frames in it until the next tick.
func TestReliableAckPeriodsSurviveIdleTimer(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	opts, clk := fakeOpts()
	pub := newTestNode(t, net, "pub")
	sub, tap := newTapNode(t, net, "sub")
	gp, gs := NewReliable(pub.mux, "cls", pub.record, opts), NewReliable(sub.mux, "cls", sub.record, opts)
	defer gp.Close()
	defer gs.Close()
	gp.SetMembers([]string{"pub", "sub"})
	step := func(d time.Duration, send bool, wantAcks int) {
		t.Helper()
		clk.Advance(d)
		net.Settle()
		if send {
			if err := gp.BroadcastTo([]string{"sub"}, []byte("m")); err != nil {
				t.Fatal(err)
			}
			net.Settle()
		}
		if got := tap.acksTo("pub"); got != wantAcks {
			t.Fatalf("%d acknowledgements, want %d", got, wantAcks)
		}
	}
	step(0, true, 1) // a lone frame
	for i := 1; i <= 20; i++ {
		step(fakePeriod/2, true, 1+i/2) // the ticks acknowledge, one a period
	}
	step(fakePeriod, false, 12)     // the last frame's
	step(10*time.Second, false, 12) // nothing owed, nothing sent
	step(0, true, 13)               // a lone frame after a quiet spell
}
