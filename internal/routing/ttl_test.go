package routing

import (
	"testing"
	"time"

	"govents/internal/clock"
	"govents/internal/core"
)

// TestExpireSilentDropsQuietNodes pins the ad-stream GC: a node whose
// last advertisement is older than the TTL is dropped (and stops being
// routed to), while recently heard-from and excluded nodes survive.
func TestExpireSilentDropsQuietNodes(t *testing.T) {
	tb := NewTable(newReg(t))
	clk := clock.NewFake(time.Unix(1000, 0))
	tb.SetAdTTL(time.Second, clk)

	tb.ApplySnapshot("self", 1, []core.SubscriptionInfo{info(t, "s1", quoteClass(), nil)})
	tb.ApplySnapshot("quiet", 1, []core.SubscriptionInfo{info(t, "q1", quoteClass(), nil)})
	clk.Advance(600 * time.Millisecond)
	tb.ApplySnapshot("fresh", 1, []core.SubscriptionInfo{info(t, "f1", quoteClass(), nil)})

	// 1.2s after quiet's last ad; 600ms after fresh's and 1.2s after
	// self's — self is excluded (a node never expires itself).
	clk.Advance(600 * time.Millisecond)
	dropped := tb.ExpireSilent("self")
	if len(dropped) != 1 || dropped[0] != "quiet" {
		t.Fatalf("ExpireSilent dropped %v, want [quiet]", dropped)
	}
	dests := tb.NodesFor(quoteClass(), nil)
	if len(dests) != 2 || dests[0] != "fresh" || dests[1] != "self" {
		t.Fatalf("post-expiry destinations = %v, want [fresh self]", dests)
	}
	if st := tb.Stats(); st.NodesExpired != 1 {
		t.Fatalf("NodesExpired = %d, want 1", st.NodesExpired)
	}

	// A returning node re-enters as new (anti-entropy trigger).
	if res := tb.ApplySnapshot("quiet", 7, []core.SubscriptionInfo{info(t, "q1", quoteClass(), nil)}); !res.NewNode || !res.Applied {
		t.Fatalf("returning node result = %+v, want NewNode+Applied", res)
	}
	if got := tb.NodesFor(quoteClass(), nil); len(got) != 3 {
		t.Fatalf("destinations after return = %v, want 3 nodes", got)
	}
}

// TestExpireSilentDisabledWithoutTTL pins that expiry is opt-in.
func TestExpireSilentDisabledWithoutTTL(t *testing.T) {
	tb := NewTable(newReg(t))
	clk := clock.NewFake(time.Unix(1000, 0))
	tb.SetAdTTL(0, clk)
	tb.ApplySnapshot("a", 1, []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)})
	clk.Advance(24 * time.Hour)
	if dropped := tb.ExpireSilent(); dropped != nil {
		t.Fatalf("expiry without TTL dropped %v", dropped)
	}
}

// TestHeartbeatAdsDoNotInvalidatePlans pins the liveness-refresh path:
// snapshots and deltas that change nothing advance the node's sequence
// and refresh lastSeen without bumping the table generation, so
// compiled plans survive heartbeats.
func TestHeartbeatAdsDoNotInvalidatePlans(t *testing.T) {
	tb := NewTable(newReg(t))
	clk := clock.NewFake(time.Unix(1000, 0))
	tb.SetAdTTL(time.Second, clk)

	subs := []core.SubscriptionInfo{info(t, "a1", quoteClass(), nil)}
	tb.ApplySnapshot("a", 1, subs)
	tb.NodesFor(quoteClass(), nil) // compile the plan
	gen := tb.gen.Load()

	// Identical snapshot (heartbeat): refresh, no invalidation.
	if res := tb.ApplySnapshot("a", 2, subs); res.Applied {
		t.Fatalf("heartbeat snapshot reported Applied")
	}
	// Empty delta (heartbeat): same.
	if res := tb.ApplyDelta("a", 3, 2, nil, nil); res.Applied {
		t.Fatalf("heartbeat delta reported Applied")
	}
	if g := tb.gen.Load(); g != gen {
		t.Fatalf("heartbeats bumped generation %d -> %d", gen, g)
	}
	st := tb.Stats()
	if st.AdsRefreshed != 2 {
		t.Fatalf("AdsRefreshed = %d, want 2", st.AdsRefreshed)
	}

	// Heartbeats kept the node alive: 0.9s after the last one, even
	// though the first ad is long past the TTL.
	clk.Advance(900 * time.Millisecond)
	if dropped := tb.ExpireSilent(); len(dropped) != 0 {
		t.Fatalf("live heartbeating node expired: %v", dropped)
	}

	// A real change still invalidates.
	if res := tb.ApplyDelta("a", 4, 3, []core.SubscriptionInfo{info(t, "a2", quoteClass(), nil)}, nil); !res.Applied {
		t.Fatalf("real delta not applied")
	}
	if g := tb.gen.Load(); g == gen {
		t.Fatalf("real delta did not bump generation")
	}
}
