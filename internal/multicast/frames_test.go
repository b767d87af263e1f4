package multicast

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"govents/internal/durable"
	"govents/internal/netsim"
)

// scribbleTransport hands the transport beneath it a copy of every
// frame and overwrites the copy as soon as Send has returned, which is
// what the mux's reuse of its frame buffer amounts to: a layer that kept
// a sent frame, or a slice of one, past Send would deliver or resend the
// scribble. The caller's frame is left as it was, since a fan-out sends
// one frame to several destinations. newTestNode puts every protocol
// test's endpoint behind one.
type scribbleTransport struct{ netsim.Transport }

func (s scribbleTransport) Send(to string, frame []byte) error {
	sent := bytes.Clone(frame)
	err := s.Transport.Send(to, sent)
	for i := range sent {
		sent[i] = 0xEE
	}
	return err
}

// TestSentFramesAreNotKept runs every protocol over endpoints that
// overwrite each frame once it is sent, on a network that loses and
// duplicates frames where the protocol recovers from it, so that
// retransmissions, redeliveries, acknowledgements and relays are all
// built after earlier frames were overwritten. Every member delivers
// every payload intact, the publisher's own deliveries included.
func TestSentFramesAreNotKept(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lossy bool
		open  func(n *testNode) Group
	}{
		{"BestEffort", false, func(n *testNode) Group { return NewBestEffort(n.mux, "cls", n.record) }},
		{"Reliable", true, func(n *testNode) Group { return NewReliable(n.mux, "cls", n.record, fastOpts()) }},
		{"FIFO", true, func(n *testNode) Group { return NewFIFO(n.mux, "cls", n.record, fastOpts()) }},
		{"Causal", true, func(n *testNode) Group { return NewCausal(n.mux, "cls", n.record, fastOpts()) }},
		{"Total", true, func(n *testNode) Group { return NewTotal(n.mux, "cls", "a", n.record, fastOpts()) }},
		{"Certified", true, func(n *testNode) Group {
			return NewCertified(n.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), n.record, fastOpts())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := netsim.Config{Seed: 7}
			if tc.lossy {
				cfg.LossRate, cfg.DupRate = 0.2, 0.2
			}
			net := netsim.New(cfg)
			defer net.Close()
			nodes := []*testNode{newTestNode(t, net, "a"), newTestNode(t, net, "b"), newTestNode(t, net, "c")}
			groups := make([]Group, len(nodes))
			for i, n := range nodes {
				groups[i] = tc.open(n)
				groups[i].SetMembers(addrs(nodes))
			}
			defer func() {
				for _, g := range groups {
					_ = g.Close()
				}
			}()

			// Two publishers, payloads of assorted sizes that say who sent
			// them and which they are.
			rng := rand.New(rand.NewSource(1))
			want := map[string]bool{}
			for i := 0; i < 20; i++ {
				for p, g := range groups[:2] {
					payload := fmt.Sprintf("%s-%02d-%s", nodes[p].mux.Addr(), i, make([]byte, rng.Intn(300)))
					want[payload] = true
					if err := g.Broadcast([]byte(payload)); err != nil {
						t.Fatal(err)
					}
				}
			}
			waitFor(t, 15*time.Second, "every payload at every member", func() bool {
				for _, n := range nodes {
					if n.count() < len(want) {
						return false
					}
				}
				return true
			})
			for _, n := range nodes {
				got := map[string]bool{}
				for _, p := range n.payloads() {
					if !want[p] {
						t.Fatalf("%s delivered a payload nobody sent: %q", n.mux.Addr(), p)
					}
					if got[p] {
						t.Fatalf("%s delivered %q twice", n.mux.Addr(), p)
					}
					got[p] = true
				}
				if len(got) != len(want) {
					t.Errorf("%s delivered %d distinct payloads, want %d", n.mux.Addr(), len(got), len(want))
				}
			}
		})
	}
}

// TestUnframeablePayloadIsDeliveredLocally: a payload too long for any
// frame is still delivered when it has no frame to go in — a group of
// one, or a destination set that names only this node — and nothing is
// sent or owed.
func TestUnframeablePayloadIsDeliveredLocally(t *testing.T) {
	huge := make([]byte, netsim.MaxFrame)
	for _, tc := range []struct {
		name  string
		alone bool // the group's only member; else b is a member too
		open  func(n *testNode, opts Options) Group
		send  func(g Group) error
	}{
		{"BestEffort", true, func(n *testNode, opts Options) Group { return NewBestEffort(n.mux, "cls", n.record) }, nil},
		{"Reliable", true, func(n *testNode, opts Options) Group { return NewReliable(n.mux, "cls", n.record, opts) }, nil},
		{"FIFO", true, func(n *testNode, opts Options) Group { return NewFIFO(n.mux, "cls", n.record, opts) }, nil},
		{"Causal", true, func(n *testNode, opts Options) Group { return NewCausal(n.mux, "cls", n.record, opts) }, nil},
		{"TotalSequencer", true, func(n *testNode, opts Options) Group { return NewTotal(n.mux, "cls", "a", n.record, opts) }, nil},
		{"BestEffortPruned", false, func(n *testNode, opts Options) Group { return NewBestEffort(n.mux, "cls", n.record) },
			func(g Group) error { return g.(*BestEffort).BroadcastTo([]string{"a"}, huge) }},
		{"ReliablePruned", false, func(n *testNode, opts Options) Group { return NewReliable(n.mux, "cls", n.record, opts) },
			func(g Group) error { return g.(*Reliable).BroadcastTo([]string{"a"}, huge) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			opts, clk := fakeOpts()
			nodes := []*testNode{newTestNode(t, net, "a")}
			if !tc.alone {
				nodes = append(nodes, newTestNode(t, net, "b"))
			}
			groups := make([]Group, len(nodes))
			for i, n := range nodes {
				groups[i] = tc.open(n, opts)
				groups[i].SetMembers(addrs(nodes))
				defer groups[i].Close()
			}
			send := tc.send
			if send == nil {
				send = func(g Group) error { return g.Broadcast(huge) }
			}
			if err := send(groups[0]); err != nil {
				t.Fatalf("broadcast of %d bytes to this node only: %v", len(huge), err)
			}
			waitFor(t, 5*time.Second, "the local delivery", func() bool { return nodes[0].count() == 1 })
			if p := nodes[0].payloads()[0]; len(p) != len(huge) {
				t.Errorf("delivered %d bytes, want %d", len(p), len(huge))
			}
			advance(net, clk, 10*opts.RetransmitInterval) // ticks, which would send anything owed
			if sent, _, _, _ := net.Stats(); sent != 0 {
				t.Errorf("%d frames sent, want none", sent)
			}
			if g, ok := groups[0].(interface{ Outstanding() int }); ok && g.Outstanding() != 0 {
				t.Errorf("the group owes %d broadcasts, want 0", g.Outstanding())
			}
		})
	}
}

// TestUnframeableBroadcastIsRefused: a payload whose frame no transport
// carries, and a certified event ID longer than a frame can name, are
// refused by every protocol's Broadcast before anything is stamped,
// persisted or delivered: nothing is owed, nothing is resent on a tick,
// and no member, the publisher included, delivers anything.
func TestUnframeableBroadcastIsRefused(t *testing.T) {
	huge := make([]byte, netsim.MaxFrame)
	certified := func(n *testNode, opts Options) Group {
		return NewCertified(n.mux, "cls", durable.NewMemOutbox(), durable.NewMemInbox(), n.record, opts)
	}
	for _, tc := range []struct {
		name string
		open func(n *testNode, opts Options) Group
		send func(g Group) error
	}{
		{"BestEffort", func(n *testNode, opts Options) Group { return NewBestEffort(n.mux, "cls", n.record) }, nil},
		{"Reliable", func(n *testNode, opts Options) Group { return NewReliable(n.mux, "cls", n.record, opts) }, nil},
		{"FIFO", func(n *testNode, opts Options) Group { return NewFIFO(n.mux, "cls", n.record, opts) }, nil},
		{"Causal", func(n *testNode, opts Options) Group { return NewCausal(n.mux, "cls", n.record, opts) }, nil},
		{"Total", func(n *testNode, opts Options) Group { return NewTotal(n.mux, "cls", "b", n.record, opts) }, nil},
		{"TotalSequencer", func(n *testNode, opts Options) Group { return NewTotal(n.mux, "cls", "a", n.record, opts) }, nil},
		{"Certified", certified, nil},
		{"CertifiedLongID", certified, func(g Group) error {
			return g.(*Certified).BroadcastWithID(string(make([]byte, 1<<16)), []byte("payload"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			opts, clk := fakeOpts()
			nodes := []*testNode{newTestNode(t, net, "a"), newTestNode(t, net, "b")}
			groups := make([]Group, len(nodes))
			for i, n := range nodes {
				groups[i] = tc.open(n, opts)
				groups[i].SetMembers(addrs(nodes))
				defer groups[i].Close()
			}
			if tc.send != nil {
				if err := tc.send(groups[0]); err == nil {
					t.Error("the broadcast was accepted")
				}
			} else if err := groups[0].Broadcast(huge); !errors.Is(err, netsim.ErrFrameTooLarge) {
				t.Errorf("broadcast of %d bytes: %v, want ErrFrameTooLarge", len(huge), err)
			}
			advance(net, clk, 10*opts.RetransmitInterval) // ticks, which would resend anything owed
			if sent, _, _, _ := net.Stats(); sent != 0 {
				t.Errorf("%d frames sent, want none", sent)
			}
			for _, n := range nodes {
				if c := n.count(); c != 0 {
					t.Errorf("%s delivered %d payloads, want none", n.mux.Addr(), c)
				}
			}
			if g, ok := groups[0].(interface{ Outstanding() int }); ok && g.Outstanding() != 0 {
				t.Errorf("the link owes %d broadcasts, want 0", g.Outstanding())
			}
			if g, ok := groups[0].(*Certified); ok && g.OutboxLen() != 0 {
				t.Errorf("the outbox holds %d entries, want 0", g.OutboxLen())
			}
		})
	}
}
