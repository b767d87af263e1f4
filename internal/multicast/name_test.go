package multicast

import (
	"slices"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/codec"
	"govents/internal/durable"
	"govents/internal/netsim"
)

// TestNextName: every group names its publications from an atomic
// counter, 1, 2, 3, …, at no allocation, under an incarnation that is the
// epoch its link's receivers are told (DeliverFrom), its inner link's
// for Causal and Total, one of its own for BestEffort, whose stream has
// none, and for Certified the epoch mixed with its address, so that two
// publishers whose epochs agree name their events apart.
func TestNextName(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	n := newTestNode(t, net, "node-0")
	opts := Options{RetransmitInterval: time.Hour}
	rel := NewReliable(n.mux, "rel", n.record, opts)
	causal := NewCausal(n.mux, "causal", n.record, opts)
	total := NewTotal(n.mux, "total", "node-0", n.record, opts)
	be := NewBestEffort(n.mux, "be", n.record)
	cert := NewCertified(n.mux, "cert", durable.NewMemOutbox(), durable.NewMemInbox(), n.record, opts)
	for _, tc := range []struct {
		name string
		g    Group
		inc  uint64
	}{
		{"reliable", rel, rel.stream.epoch},
		{"fifo", NewFIFO(n.mux, "fifo", n.record, opts), 0},
		{"causal", causal, causal.inner.stream.epoch},
		{"total", total, total.inner.stream.epoch},
		{"besteffort", be, be.epoch},
		{"certified", cert, certIncarnation("node-0", cert.stream.epoch)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.g.Close()
			if f, ok := tc.g.(*FIFO); ok {
				tc.inc = f.stream.epoch
			}
			for want := uint64(1); want <= 3; want++ {
				if inc, n := tc.g.NextName(); inc != tc.inc || n != want {
					t.Fatalf("name (%d, %d), want (%d, %d)", inc, n, tc.inc, want)
				}
			}
			if a := allocs.PerRun(1000, func() { tc.g.NextName() }); a != 0 {
				t.Errorf("NextName: %.3f allocations per name, want 0", a)
			}
		})
	}
	if e := cert.stream.epoch; certIncarnation("node-0", e) == certIncarnation("node-1", e) || certIncarnation("node-0", e) == certIncarnation("node-0", e+1) {
		t.Error("two certified incarnations of one epoch, or of one address, agree")
	}
}

// TestCertifiedFrameCarriesTheIDOnce: a certified event whose payload is
// an envelope's stored record is named by the ID that record spells,
// which its data frame does not repeat; the subscriber stages it under
// that ID, and the outbox keys it so. A payload that spells no ID is
// named by the group, and its frame carries the name.
func TestCertifiedFrameCarriesTheIDOnce(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	pub, tap := newTapNode(t, net, "pub")
	sub := newTestNode(t, net, "sub")
	var frames []message
	tap.onData = func(m *message) { frames = append(frames, *m) }
	opts := Options{RetransmitInterval: time.Hour}
	log := durable.NewMemOutbox()
	gp := NewCertified(pub.mux, "cls", log, durable.NewMemInbox(), pub.record, opts)
	defer gp.Close()
	stager := &countingStager{}
	gs := NewCertified(sub.mux, "cls", durable.NewMemOutbox(), stager, sub.record, opts)
	defer gs.Close()
	// An identity that never acknowledges keeps every entry in the outbox.
	if err := gp.SetSubscribers([]CertSubscriber{{DurableID: "desk", Addr: "sub"}, {DurableID: "away", Addr: "gone"}}); err != nil {
		t.Fatal(err)
	}

	inc, count := gp.NextName()
	name := codec.Name{Inc: inc, N: count}
	record, err := codec.Marshal(&codec.Envelope{Name: name, Payload: []byte("event")})
	if err != nil {
		t.Fatal(err)
	}
	if err := gp.Broadcast(record); err != nil {
		t.Fatal(err)
	}
	if err := gp.Broadcast([]byte("raw")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	waitFor(t, 5*time.Second, "both deliveries", func() bool { return sub.count() == 2 })

	frames = slices.DeleteFunc(frames, func(m message) bool { return m.Seq == 0 })
	if len(frames) != 4 {
		t.Fatalf("%d data frames, want 4: each event's to each address", len(frames))
	}
	raw := codec.Name{Inc: inc, N: count + 1}.String()
	for i, m := range frames {
		if want := []string{"", raw}[i/2]; m.ID != want {
			t.Errorf("data frame %d carries the ID %q, want %q", i, m.ID, want)
		}
	}
	for _, id := range []string{name.String(), raw} {
		if !stager.staged[codec.IdentOf(id)] {
			t.Errorf("the subscriber did not stage %s: %v", id, stager.staged)
		}
		if !pending(log, "away", id) {
			t.Errorf("the outbox holds no entry %s", id)
		}
	}
}
