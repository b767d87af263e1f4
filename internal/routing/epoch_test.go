package routing

import (
	"reflect"
	"testing"

	"govents/internal/core"
)

// A restarted node's ad sequence restarts at 1; without epochs its
// fresh snapshots would be stale-rejected against the dead
// incarnation's high sequence forever (and the rejected ads would keep
// refreshing lastSeen, defeating TTL expiry too).
func TestNoteEpochRebirthResetsSequence(t *testing.T) {
	tb := NewTable(newReg(t))

	// First life: epoch 100, advances to seq 7.
	if !tb.NoteEpoch("node-a", 100) {
		t.Fatal("first epoch rejected")
	}
	tb.ApplySnapshot("node-a", 7, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	if got := dests(tb, quoteClass(), stockQuote{}); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Fatalf("first life not routed: %v", got)
	}

	// Rebirth: higher epoch, sequence restarts at 1 with new subs.
	if !tb.NoteEpoch("node-a", 200) {
		t.Fatal("rebirth epoch rejected")
	}
	res := tb.ApplySnapshot("node-a", 1, []core.SubscriptionInfo{info(t, "a2", stockClass(), nil)})
	if !res.Applied {
		t.Fatal("reborn node's seq-1 snapshot was stale-rejected")
	}
	if !res.NewNode {
		t.Fatal("rebirth not seen as a new node (anti-entropy would not fire)")
	}
	if got := dests(tb, stockClass(), stockObvent{}); !reflect.DeepEqual(got, []string{"node-a"}) {
		t.Fatalf("reborn subscriptions not routed: %v", got)
	}

	// A late retransmission from the dead incarnation must be dropped
	// before it can be applied.
	if tb.NoteEpoch("node-a", 100) {
		t.Fatal("dead incarnation's epoch accepted")
	}
}

func TestNoteEpochLegacyZeroAlwaysAccepted(t *testing.T) {
	tb := NewTable(newReg(t))
	if !tb.NoteEpoch("node-a", 0) {
		t.Fatal("legacy epoch 0 rejected")
	}
	if !tb.NoteEpoch("node-a", 42) {
		t.Fatal("upgrade from legacy rejected")
	}
	if !tb.NoteEpoch("node-a", 0) {
		t.Fatal("legacy epoch 0 rejected after upgrade")
	}
}

func TestEpochForgottenWithNode(t *testing.T) {
	tb := NewTable(newReg(t))
	tb.NoteEpoch("node-a", 200)
	tb.ApplySnapshot("node-a", 3, nil)
	tb.RetainNodes(nil)
	// After a removal the old epoch must not block a node that rejoins
	// with a smaller (but fresh to us) epoch.
	if !tb.NoteEpoch("node-a", 150) {
		t.Fatal("epoch survived the node's removal")
	}
	tb.NoteEpoch("node-b", 300)
	tb.ApplySnapshot("node-b", 1, nil)
	tb.RetainNodes([]string{"node-a"})
	if !tb.NoteEpoch("node-b", 250) {
		t.Fatal("epoch survived RetainNodes")
	}
}
