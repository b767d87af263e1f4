// DomainGroup chaos schedules: crash-restart property tests of the
// durability plane. A durable subscriber is partitioned, healed,
// crashed and reborn while a certified feed keeps publishing — the
// publisher crashes and recovers too — and the delivered stream is
// checked against an always-up oracle: delivery-set equality over the
// whole run, exactly-once in clean runs, per-publisher order over the
// lockstep-published segments, and set-completeness (duplicates
// allowed) when a torn ack-log tail is injected.
package govents_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"govents"
	"govents/netsim"
	"govents/obvent"
)

// chaosTick is the certified event of the chaos schedules.
type chaosTick struct {
	obvent.Base
	obvent.CertifiedBase
	Pub string
	Seq int
}

// recorder accumulates deliveries with duplicate accounting.
type recorder struct {
	mu    sync.Mutex
	count map[string]int
	order []string // unique keys in first-delivery order
}

func newRecorder() *recorder { return &recorder{count: make(map[string]int)} }

func tickKey(pub string, seq int) string { return fmt.Sprintf("%s/%d", pub, seq) }

func (r *recorder) record(pub string, seq int) {
	k := tickKey(pub, seq)
	r.mu.Lock()
	r.count[k]++
	if r.count[k] == 1 {
		r.order = append(r.order, k)
	}
	r.mu.Unlock()
}

func (r *recorder) has(k string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count[k] > 0
}

func (r *recorder) hasAll(keys []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range keys {
		if r.count[k] == 0 {
			return false
		}
	}
	return true
}

func (r *recorder) hasAny(keys []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range keys {
		if r.count[k] > 0 {
			return true
		}
	}
	return false
}

// keys returns the sorted unique delivered keys.
func (r *recorder) keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.count))
	for k := range r.count {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// dups counts deliveries beyond the first, summed over all keys.
func (r *recorder) dups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := 0
	for _, c := range r.count {
		d += c - 1
	}
	return d
}

// orderRestricted returns the first-delivery order restricted to keys.
func (r *recorder) orderRestricted(keys []string) []string {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, k := range r.order {
		if want[k] {
			out = append(out, k)
		}
	}
	return out
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout. The simulated network has millisecond latencies; 10s is an
// eternity that still bounds a wedged schedule.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func chaosGroup(t *testing.T, n int) *govents.DomainGroup {
	t.Helper()
	g, err := govents.OpenGroup(context.Background(), n, govents.GroupConfig{
		Net:        netsim.Config{MaxLatency: time.Millisecond, Seed: 11},
		Durability: t.TempDir(),
		Options: func(i int, addr string) []govents.Option {
			return []govents.Option{
				govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	return g
}

// TestDomainGroupCertifiedChaosSchedule drives the full schedule:
// partition → heal → subscriber crash → publisher crash → both reborn
// → live again, asserting the delivery-set and ordering invariants.
func TestDomainGroupCertifiedChaosSchedule(t *testing.T) {
	ctx := context.Background()
	g := chaosGroup(t, 3)

	oracle, durable := newRecorder(), newRecorder()
	if _, err := govents.Subscribe(g.Domain(2), nil, func(e chaosTick) {
		oracle.record(e.Pub, e.Seq)
	}); err != nil {
		t.Fatal(err)
	}
	subscribeDurable := func(d *govents.Domain) {
		t.Helper()
		if _, err := govents.SubscribeDurable(d, "sub-1", func(e chaosTick) {
			durable.record(e.Pub, e.Seq)
		}); err != nil {
			t.Fatal(err)
		}
	}
	subscribeDurable(g.Domain(1))
	waitFor(t, "subscription ads at publisher", func() bool {
		return g.Domain(0).RemoteSubscriptionCount() >= 2
	})

	var published []string
	seq := 0
	publish := func(n int, lockstep bool) []string {
		t.Helper()
		batch := make([]string, 0, n)
		for i := 0; i < n; i++ {
			k := tickKey("node-0", seq)
			if err := g.Domain(0).Publish(ctx, chaosTick{Pub: "node-0", Seq: seq}); err != nil {
				t.Fatal(err)
			}
			published = append(published, k)
			batch = append(batch, k)
			if lockstep {
				waitFor(t, "lockstep delivery of "+k, func() bool {
					return durable.has(k) && oracle.has(k)
				})
			}
			seq++
		}
		return batch
	}

	// Phase A: live lockstep — each event confirmed at both subscribers
	// before the next publish, pinning per-publisher delivery order.
	batchA := publish(5, true)

	// Phase B: the durable subscriber is partitioned away. The oracle
	// keeps receiving; the durable subscriber catches up only after the
	// heal, through certified retransmission.
	g.Partition([]int{0, 2}, []int{1})
	batchB := publish(4, false)
	waitFor(t, "oracle during partition", func() bool { return oracle.hasAll(batchB) })
	if durable.hasAny(batchB) {
		t.Fatal("partitioned subscriber received events through the partition")
	}
	g.Heal()
	waitFor(t, "durable catch-up after heal", func() bool { return durable.hasAll(batchB) })

	// Phase C: subscriber crash. Everything published while it is down
	// is owed to its durable identity.
	if err := g.Crash(ctx, 1); err != nil {
		t.Fatal(err)
	}
	batchC := publish(4, false)
	waitFor(t, "oracle during subscriber crash", func() bool { return oracle.hasAll(batchC) })

	// The publisher crashes too: its outbox — batch C still pending for
	// sub-1 — must come back from disk.
	if err := g.Crash(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Restart(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Subscriber rebirth: a new incarnation presents the same durable
	// identity and receives everything it missed — from the restarted
	// publisher's recovered outbox, without any new publish.
	d1, err := g.Restart(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	subscribeDurable(d1)
	waitFor(t, "missed events after restart", func() bool { return durable.hasAll(batchC) })

	// Phase D: live lockstep from the restarted publisher.
	batchD := publish(4, true)

	// Delivery-set invariant: both subscribers saw exactly the
	// published set — nothing lost across partition, crash or restart,
	// nothing invented.
	want := append([]string(nil), published...)
	sort.Strings(want)
	if got := durable.keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("durable delivery set mismatch:\n got %v\nwant %v", got, want)
	}
	if got := oracle.keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("oracle delivery set mismatch:\n got %v\nwant %v", got, want)
	}

	// Exactly-once invariant: with no loss, duplication or torn state,
	// the durable inbox dedup suppresses every redelivery.
	if d := durable.dups(); d != 0 {
		t.Errorf("durable subscriber saw %d duplicate deliveries in a clean run", d)
	}
	if d := oracle.dups(); d != 0 {
		t.Errorf("oracle saw %d duplicate deliveries in a clean run", d)
	}

	// Per-publisher order over the lockstep segments. A certified link
	// releases each publisher incarnation's events in offset order, but
	// across a crash of either end the order is not promised: a restarted
	// subscriber replays in staging order, and what a dead incarnation's
	// link held behind a hole goes out before the new one's frames.
	live := append(append([]string(nil), batchA...), batchD...)
	if got := durable.orderRestricted(live); !reflect.DeepEqual(got, live) {
		t.Errorf("durable lockstep delivery order mismatch:\n got %v\nwant %v", got, live)
	}

	// The durability plane actually carried the run.
	if ds := d1.DurableStats(); ds.Staged == 0 || ds.Acked == 0 {
		t.Errorf("subscriber durability plane idle: %+v", ds)
	}
	if ds := g.Domain(0).DurableStats(); ds.Appends == 0 {
		t.Errorf("publisher durability plane idle: %+v", ds)
	}
}

// TestDomainGroupTornAckTailRecovers injects the torn-tail fault into
// the durable subscriber's inbox ack log between incarnations: the lost
// acknowledgement tail regresses the cursor, so the rebirth replays the
// affected events from the local segment log. Duplicates are allowed
// (at-least-once floor); the delivery set must still be exactly the
// published set, and the log must report both the torn tail and the
// replay.
func TestDomainGroupTornAckTailRecovers(t *testing.T) {
	ctx := context.Background()
	g := chaosGroup(t, 2)

	durable := newRecorder()
	subscribe := func(d *govents.Domain) {
		t.Helper()
		if _, err := govents.SubscribeDurable(d, "sub-1", func(e chaosTick) {
			durable.record(e.Pub, e.Seq)
		}); err != nil {
			t.Fatal(err)
		}
	}
	subscribe(g.Domain(1))
	waitFor(t, "subscription ad at publisher", func() bool {
		return g.Domain(0).RemoteSubscriptionCount() >= 1
	})

	var published []string
	for seq := 0; seq < 3; seq++ {
		k := tickKey("node-0", seq)
		if err := g.Domain(0).Publish(ctx, chaosTick{Pub: "node-0", Seq: seq}); err != nil {
			t.Fatal(err)
		}
		published = append(published, k)
		waitFor(t, "delivery of "+k, func() bool { return durable.has(k) })
	}

	if err := g.Crash(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the subscriber's newest inbox ack segment: the
	// final ack record loses its last byte, so recovery must truncate
	// it and regress the cursor past an already-delivered event.
	segs, err := filepath.Glob(filepath.Join(g.DurabilityDir(1), "*", "inbox-acks", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no inbox ack segments found: %v (%v)", segs, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	d1, err := g.Restart(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	subscribe(d1) // replays the un-acked tail synchronously

	want := append([]string(nil), published...)
	sort.Strings(want)
	waitFor(t, "set completeness after torn-tail rebirth", func() bool {
		return reflect.DeepEqual(durable.keys(), want)
	})
	// The torn ack means at least one event was delivered again — the
	// at-least-once floor showing through — via the replay path.
	if durable.dups() == 0 {
		t.Error("expected at least one duplicate delivery after the torn ack tail")
	}
	ds := d1.DurableStats()
	if ds.TornTails == 0 {
		t.Errorf("torn tail not detected by the segment log: %+v", ds)
	}
	if ds.Replayed == 0 {
		t.Errorf("no events replayed from the inbox after cursor regression: %+v", ds)
	}
}
