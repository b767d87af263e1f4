package multicast

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/netsim"
)

// TestFIFOSplitPrunesAndHeals pins interest pruning on FIFO: data
// frames go only to the Send destinations, a destination pruned for a
// while has no hole to wait behind when it is addressed again, and
// nothing at all, no marker either, travels to a destination while it
// is pruned.
func TestFIFOSplitPrunesAndHeals(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")
	ga := NewFIFO(a.mux, "cls", a.record, fastOpts())
	gb := NewFIFO(b.mux, "cls", b.record, fastOpts())
	gc := NewFIFO(c.mux, "cls", c.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"a", "b", "c"}
	ga.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	var pruned, skips atomic.Uint64
	ga.SetPruneObserver(func(p, s uint64) { pruned.Add(p); skips.Add(s) })

	// m1, m2 to b only; m3 to both.
	_ = ga.BroadcastSplit([]Send{{Dests: []string{"b"}, Payload: []byte("m1")}})
	_ = ga.BroadcastSplit([]Send{{Dests: []string{"b"}, Payload: []byte("m2")}})
	_ = ga.BroadcastSplit([]Send{{Dests: []string{"b", "c"}, Payload: []byte("m3")}})

	waitFor(t, 5*time.Second, "b gets all three", func() bool { return b.count() == 3 })
	waitFor(t, 5*time.Second, "c gets m3 with nothing to heal", func() bool { return c.count() == 1 })
	if got := b.payloads(); got[0] != "m1" || got[1] != "m2" || got[2] != "m3" {
		t.Fatalf("b order = %v", got)
	}
	if got := c.payloads(); got[0] != "m3" {
		t.Fatalf("c = %v, want [m3]", got)
	}
	// a pruned itself on every publication and c on the first two.
	if pruned.Load() < 5 {
		t.Errorf("pruned = %d, want >= 5", pruned.Load())
	}

	// With c cut off from a, every frame between the two is one the
	// network drops and counts. Publications pruned for c, and the
	// retransmission periods after them, must add none.
	waitFor(t, 5*time.Second, "everything acknowledged", func() bool { return ga.Outstanding() == 0 })
	net.Settle()
	net.Partition([]string{"a"}, []string{"c"})
	net.ResetStats()
	for i := 0; i < 5; i++ {
		_ = ga.BroadcastSplit([]Send{{Dests: []string{"b"}, Payload: []byte("to-b")}})
	}
	waitFor(t, 5*time.Second, "b gets the pruned batch", func() bool { return b.count() == 8 })
	waitFor(t, 5*time.Second, "the pruned batch acknowledged", func() bool { return ga.Outstanding() == 0 })
	time.Sleep(4 * fastOpts().RetransmitInterval)
	net.Settle()
	if _, _, dropped, _ := net.Stats(); dropped != 0 {
		t.Errorf("%d frames travelled between a and the pruned c, want none", dropped)
	}
	if skips.Load() != 0 {
		t.Errorf("%d marker frames counted, want none", skips.Load())
	}
	if c.count() != 1 {
		t.Errorf("c delivered %d events, want 1", c.count())
	}
}

// TestCausalSkipFlushCrossOriginLiveness pins the liveness role of the
// causal flush: a publishes e1 only to b; b's causally dependent e2
// reaches c, which must hold it until a's skip marker carries the clock
// advance — without the flush c would wait forever for data it was
// deliberately not sent.
func TestCausalSkipFlushCrossOriginLiveness(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")
	ga := NewCausal(a.mux, "cls", a.record, fastOpts())
	gb := NewCausal(b.mux, "cls", b.record, fastOpts())
	gc := NewCausal(c.mux, "cls", c.record, fastOpts())
	defer ga.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"a", "b", "c"}
	ga.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	// e1 from a, pruned for everyone but b.
	_ = ga.BroadcastSplit([]Send{{Dests: []string{"b"}, Payload: []byte("e1")}})
	waitFor(t, 5*time.Second, "b delivers e1", func() bool { return b.count() == 1 })
	// e2 from b causally follows e1 and goes to everyone.
	_ = gb.Broadcast([]byte("e2"))

	waitFor(t, 5*time.Second, "c delivers e2 after a's flush", func() bool { return c.count() == 1 })
	if got := c.payloads(); got[0] != "e2" {
		t.Fatalf("c = %v, want [e2]", got)
	}
	// b delivered e1 then e2, in causal order.
	waitFor(t, 5*time.Second, "b delivers e2", func() bool { return b.count() == 2 })
	if got := b.payloads(); got[0] != "e1" || got[1] != "e2" {
		t.Fatalf("b order = %v, want [e1 e2]", got)
	}
}

// TestTotalPlannerFiltersAfterStamping pins the sequencer rule: every
// publication takes one place in the sequencer's order whoever is
// interested in it, so any two members deliver their common events in
// the same relative order, and an origin that is not interested in its
// own publication still gets it sequenced.
func TestTotalPlannerFiltersAfterStamping(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 2 * time.Millisecond, Seed: 7})
	defer net.Close()
	seq := newTestNode(t, net, "seq")
	b := newTestNode(t, net, "b")
	c := newTestNode(t, net, "c")
	gs := NewTotal(seq.mux, "cls", "seq", seq.record, fastOpts())
	gb := NewTotal(b.mux, "cls", "seq", b.record, fastOpts())
	gc := NewTotal(c.mux, "cls", "seq", c.record, fastOpts())
	defer gs.Close()
	defer gb.Close()
	defer gc.Close()
	all := []string{"seq", "b", "c"}
	gs.SetMembers(all)
	gb.SetMembers(all)
	gc.SetMembers(all)

	// Payload prefix names the interested members.
	gs.SetPlanner(func(payload []byte) ([]Send, bool) {
		parts := strings.SplitN(string(payload), ":", 2)
		if parts[0] == "all" {
			return []Send{{Dests: []string{"seq", "b", "c"}, Payload: payload}}, true
		}
		return []Send{{Dests: strings.Split(parts[0], "+"), Payload: payload}}, true
	})

	const per = 8
	var wg sync.WaitGroup
	for name, g := range map[string]*Total{"b": gb, "c": gc} {
		wg.Add(1)
		go func(name string, g *Total) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Each origin alternates: own-only (origin interested),
				// other-only (origin NOT interested), all.
				other := "c"
				if name == "c" {
					other = "b"
				}
				_ = g.Broadcast([]byte(fmt.Sprintf("%s:%s%d", name, name, i)))
				_ = g.Broadcast([]byte(fmt.Sprintf("%s:%s-x%d", other, name, i)))
				_ = g.Broadcast([]byte(fmt.Sprintf("all:%s-a%d", name, i)))
			}
		}(name, g)
	}
	wg.Wait()

	// b delivers its own-only + the other's other-only + all the alls.
	wantB := per + per + 2*per
	wantC := per + per + 2*per
	wantSeq := 2 * per
	waitFor(t, 15*time.Second, "pruned total delivery", func() bool {
		return b.count() == wantB && c.count() == wantC && seq.count() == wantSeq
	})

	// Any two members deliver their common events in the same relative
	// order (each sees a subsequence of the sequencer's one order).
	commonOrderAgrees(t, b.payloads(), c.payloads())
	commonOrderAgrees(t, b.payloads(), seq.payloads())
	commonOrderAgrees(t, c.payloads(), seq.payloads())
}

// commonOrderAgrees fails the test unless the events x and y share
// appear in the same relative order in both.
func commonOrderAgrees(t *testing.T, x, y []string) {
	t.Helper()
	set := make(map[string]bool, len(y))
	for _, p := range y {
		set[p] = true
	}
	var common []string
	for _, p := range x {
		if set[p] {
			common = append(common, p)
		}
	}
	j := 0
	for _, p := range y {
		if j < len(common) && p == common[j] {
			j++
		}
	}
	if j != len(common) {
		t.Fatalf("common events ordered differently:\n%v\nvs\n%v", x, y)
	}
}

// TestTotalConcurrentSequencerSplitAgreement pins the single stamping
// critical section: several goroutines publish at the sequencer at once
// through a planner that sends every publication to a different subset
// of the members, over a network that reorders, and still every pair of
// members (the sequencer's own delivery included) agrees on the order
// of the events both received.
func TestTotalConcurrentSequencerSplitAgreement(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 23})
	defer net.Close()
	names := []string{"seq", "b", "c", "d"}
	nodes := make([]*testNode, len(names))
	groups := make([]*Total, len(names))
	for i, name := range names {
		nodes[i] = newTestNode(t, net, name)
		groups[i] = NewTotal(nodes[i].mux, "cls", "seq", nodes[i].record, fastOpts())
		groups[i].SetMembers(names)
		defer groups[i].Close()
	}
	// The payload's first byte is the set of members it goes to.
	groups[0].SetPlanner(func(payload []byte) ([]Send, bool) {
		var dests []string
		for i, name := range names {
			if payload[0]&(1<<i) != 0 {
				dests = append(dests, name)
			}
		}
		return []Send{{Dests: dests, Payload: payload}}, true
	})

	const publishers, per = 6, 60
	want := make([]int, len(names))
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		for i := 0; i < per; i++ {
			mask := (p*per+i)%15 + 1
			for k := range names {
				if mask&(1<<k) != 0 {
					want[k]++
				}
			}
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mask := byte((p*per+i)%15 + 1)
				if err := groups[0].Broadcast(append([]byte{mask}, fmt.Sprintf("p%d-%d", p, i)...)); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	waitFor(t, 15*time.Second, "every member's share", func() bool {
		for k, n := range nodes {
			if n.count() != want[k] {
				return false
			}
		}
		return true
	})
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			commonOrderAgrees(t, nodes[i].payloads(), nodes[j].payloads())
		}
	}
}

// TestTotalPlannerFailOpen pins the fail-open rule: a planner that
// cannot evaluate a payload reports ok=false and the publication is
// broadcast to the whole group.
func TestTotalPlannerFailOpen(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	seq := newTestNode(t, net, "seq")
	b := newTestNode(t, net, "b")
	gs := NewTotal(seq.mux, "cls", "seq", seq.record, fastOpts())
	gb := NewTotal(b.mux, "cls", "seq", b.record, fastOpts())
	defer gs.Close()
	defer gb.Close()
	gs.SetMembers([]string{"seq", "b"})
	gb.SetMembers([]string{"seq", "b"})
	gs.SetPlanner(func(payload []byte) ([]Send, bool) { return nil, false })

	_ = gs.Broadcast([]byte("opaque"))
	waitFor(t, 5*time.Second, "fail-open delivery everywhere", func() bool {
		return seq.count() == 1 && b.count() == 1
	})
}
