package dace

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// relPing is plain reliable delivery (no ordering), so its stream maps
// to a *multicast.Reliable whose Outstanding() the TTL-expiry test can
// observe.
type relPing struct {
	obvent.Base
	obvent.ReliableBase
	N int
}

// classLog records deliveries per class at one node.
type classLog struct {
	mu  sync.Mutex
	got map[string][]string
}

func newClassLog() *classLog { return &classLog{got: make(map[string][]string)} }

func (l *classLog) add(class, id string) {
	l.mu.Lock()
	l.got[class] = append(l.got[class], id)
	l.mu.Unlock()
}

func (l *classLog) count(class string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.got[class])
}

func (l *classLog) seq(class string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got[class]...)
}

// runPruneScenario drives the same workload — three multicast classes,
// sparse subscriptions, a mid-batch partition/heal, and subscription
// churn — and returns each node's per-class delivery log. The caller
// runs it with pruning on and off and uses the unpruned run as the
// oracle.
func runPruneScenario(t *testing.T, pruneOff bool) []*classLog {
	t.Helper()
	net := netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 11})
	defer net.Close()
	cfg := fastCfg()
	cfg.NoOrderedPruning = pruneOff
	nodes := newDomain(t, net, 5, cfg)
	logs := make([]*classLog, len(nodes))
	for i := range logs {
		logs[i] = newClassLog()
	}

	sub := func(i int, class string) {
		t.Helper()
		var s *core.Subscription
		var err error
		switch class {
		case "fifo":
			s, err = core.Subscribe(nodes[i].engine, nil, func(o fifoTick) { logs[i].add("fifo", fmt.Sprintf("f%d", o.N)) })
		case "total":
			s, err = core.Subscribe(nodes[i].engine, nil, func(o orderedTick) { logs[i].add("total", fmt.Sprintf("t%d", o.N)) })
		case "causal":
			s, err = core.Subscribe(nodes[i].engine, nil, func(o causalMsg) { logs[i].add("causal", o.Text) })
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Activate()
	}
	// Sparse interest: every class has a strict subscriber subset, and
	// node-4 starts uninterested in everything.
	sub(1, "fifo")
	sub(1, "total")
	sub(2, "total")
	sub(2, "causal")
	sub(3, "fifo")
	sub(3, "causal")
	// Publishers must have witnessed all six ads before the batches, so
	// both runs prune against the same routing state.
	waitAds(t, nodes[0].node, 6)
	waitAds(t, nodes[1].node, 4) // node-1's own two are local

	pubFifo := func(from, n int) {
		if err := core.Publish(nodes[from].engine, fifoTick{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	pubTotal := func(from, n int) {
		if err := core.Publish(nodes[from].engine, orderedTick{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	pubCausal := func(from int, text string) {
		if err := core.Publish(nodes[from].engine, causalMsg{Text: text}); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: batches from a non-subscriber origin (node-0) and a
	// subscriber origin (node-1), with node-3 partitioned away for the
	// middle of the FIFO batch — the retransmission and skip machinery
	// must heal it.
	for i := 0; i < 3; i++ {
		pubFifo(0, i)
		pubTotal(0, i)
		pubCausal(0, fmt.Sprintf("c%d", i))
	}
	net.Partition([]string{"node-3"}, []string{"node-0", "node-1", "node-2", "node-4"})
	for i := 3; i < 6; i++ {
		pubFifo(0, i)
		pubTotal(1, 100+i)
		pubCausal(1, fmt.Sprintf("c1-%d", i))
	}
	net.Heal()
	for i := 6; i < 9; i++ {
		pubFifo(0, i)
		pubTotal(0, i)
	}

	// Phase 2: churn — node-4 becomes interested in fifoTick; once the
	// publisher has witnessed the new ad, the remaining batch must reach
	// it too.
	sub(4, "fifo")
	waitAds(t, nodes[0].node, 7)
	for i := 9; i < 12; i++ {
		pubFifo(0, i)
	}

	wantFifo, wantTotal, wantCausal := 12, 9, 6
	defer func() {
		if t.Failed() {
			for i, l := range logs {
				t.Logf("node-%d: fifo=%v total=%v causal=%v", i, l.seq("fifo"), l.seq("total"), l.seq("causal"))
			}
		}
	}()
	// node-4 must deliver the post-churn batch. The pre-churn batch is
	// deterministic only with pruning on (never sent): with pruning off
	// those payloads reach node-4's engine, and whether they beat the
	// phase-2 activation is a race — so only the suffix is asserted and
	// compared across runs (lateFifo).
	hasLate := func(l *classLog) bool {
		got := make(map[string]bool)
		for _, id := range l.seq("fifo") {
			got[id] = true
		}
		return got["f9"] && got["f10"] && got["f11"]
	}
	waitFor(t, 20*time.Second, "scenario deliveries", func() bool {
		return logs[1].count("fifo") == wantFifo &&
			logs[3].count("fifo") == wantFifo &&
			hasLate(logs[4]) &&
			logs[1].count("total") == wantTotal &&
			logs[2].count("total") == wantTotal &&
			logs[2].count("causal") == wantCausal &&
			logs[3].count("causal") == wantCausal
	})
	if !pruneOff && logs[4].count("fifo") != 3 {
		t.Errorf("pruning on: churn node delivered %v, want exactly the post-churn batch", logs[4].seq("fifo"))
	}

	// Pruning saves traffic only when on; the stats pin which mode ran.
	stats := nodes[0].node.RoutingStats()
	if pruneOff && stats.PrunedSends != 0 {
		t.Errorf("pruning off: PrunedSends = %d, want 0", stats.PrunedSends)
	}
	if !pruneOff && stats.PrunedSends == 0 {
		t.Error("pruning on: PrunedSends = 0, want > 0 under sparse interest")
	}
	return logs
}

// perOriginAscending checks that ids sharing a numeric-prefix origin
// band appear in increasing order — the FIFO (and causal's per-origin)
// contract. split classifies an id into (origin, rank).
func perOriginAscending(t *testing.T, node, class string, ids []string, rank func(string) (origin string, n int)) {
	t.Helper()
	lastRank := make(map[string]int)
	for _, id := range ids {
		o, n := rank(id)
		if prev, ok := lastRank[o]; ok && n <= prev {
			t.Errorf("%s %s: per-origin order violated: %v", node, class, ids)
			return
		}
		lastRank[o] = n
	}
}

// commonOrderAgrees checks two nodes delivered their shared events in
// the same relative order.
func commonOrderAgrees(t *testing.T, what string, x, y []string) {
	t.Helper()
	inY := make(map[string]bool, len(y))
	for _, p := range y {
		inY[p] = true
	}
	var common []string
	for _, p := range x {
		if inY[p] {
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
		t.Errorf("%s: common events ordered differently:\n%v\nvs\n%v", what, x, y)
	}
}

func sorted(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

// TestOrderedPruningEquivalence is the property test for the
// interest-aware multicast layer: running the identical workload with
// pruning on and off must produce the same delivery sets at every node,
// and each run must independently satisfy its class's ordering
// contract — FIFO/causal per-origin order and total-order pairwise
// agreement — under a partition/heal and subscription churn.
func TestOrderedPruningEquivalence(t *testing.T) {
	pruned := runPruneScenario(t, false)
	oracle := runPruneScenario(t, true)

	// node-4's pre-churn fifo deliveries are racy with pruning off (see
	// runPruneScenario); only the deterministic post-churn suffix is
	// compared there.
	lateFifo := func(ids []string) []string {
		var out []string
		for _, id := range ids {
			if id == "f9" || id == "f10" || id == "f11" {
				out = append(out, id)
			}
		}
		return out
	}
	for i := range pruned {
		for _, class := range []string{"fifo", "total", "causal"} {
			pv, ov := pruned[i].seq(class), oracle[i].seq(class)
			if i == 4 && class == "fifo" {
				pv, ov = lateFifo(pv), lateFifo(ov)
			}
			a, b := sorted(pv), sorted(ov)
			if len(a) != len(b) {
				t.Fatalf("node-%d %s: pruned run delivered %d, oracle %d", i, class, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("node-%d %s: delivery sets differ: %v vs %v", i, class, a, b)
				}
			}
		}
	}

	fifoRank := func(id string) (string, int) {
		var n int
		fmt.Sscanf(id, "f%d", &n)
		return "node-0", n // single fifo origin in this scenario
	}
	causalRank := func(id string) (string, int) {
		var n int
		if _, err := fmt.Sscanf(id, "c1-%d", &n); err == nil {
			return "node-1", n
		}
		fmt.Sscanf(id, "c%d", &n)
		return "node-0", n
	}
	for runName, logs := range map[string][]*classLog{"pruned": pruned, "oracle": oracle} {
		for _, i := range []int{1, 3, 4} {
			perOriginAscending(t, fmt.Sprintf("%s node-%d", runName, i), "fifo", logs[i].seq("fifo"), fifoRank)
		}
		for _, i := range []int{2, 3} {
			perOriginAscending(t, fmt.Sprintf("%s node-%d", runName, i), "causal", logs[i].seq("causal"), causalRank)
		}
		commonOrderAgrees(t, runName+" total node-1 vs node-2", logs[1].seq("total"), logs[2].seq("total"))
	}
}

// TestExpiredNodeDropsFromRetransmission pins the dead-node gap fix: a
// crashed node that the ad-TTL expires must also leave the multicast
// membership, so reliable retransmission queues stop owing it frames
// instead of retrying forever.
func TestExpiredNodeDropsFromRetransmission(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.AdTTL = 200 * time.Millisecond
	nodes := newDomain(t, net, 3, cfg)
	pub, live, doomed := nodes[0], nodes[1], nodes[2]

	var gotLive, gotDoomed int32
	var mu sync.Mutex
	for _, s := range []struct {
		n *testNode
		c *int32
	}{{live, &gotLive}, {doomed, &gotDoomed}} {
		c := s.c
		sub, err := core.Subscribe(s.n.engine, nil, func(p relPing) {
			mu.Lock()
			*c++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = sub.Activate()
	}
	waitAds(t, pub.node, 2)

	if err := core.Publish(pub.engine, relPing{N: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "warm-up delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotLive == 1 && gotDoomed == 1
	})

	// Find the reliable group carrying relPing on the publisher.
	relGroup := func() *multicast.Reliable {
		pub.node.mu.Lock()
		defer pub.node.mu.Unlock()
		for _, g := range pub.node.groups {
			if r, ok := g.(*multicast.Reliable); ok {
				return r
			}
		}
		return nil
	}
	waitFor(t, 5*time.Second, "reliable group exists", func() bool { return relGroup() != nil })

	net.Crash(doomed.node.Addr())
	for i := 1; i <= 3; i++ {
		if err := core.Publish(pub.engine, relPing{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// The crashed destination never acks, so the outbox holds frames
	// for it.
	waitFor(t, 5*time.Second, "outstanding while crashed peer is a member", func() bool {
		return relGroup().Outstanding() > 0
	})

	// After the TTL the silent peer expires, which must propagate into
	// multicast membership and drain the queue.
	waitFor(t, 10*time.Second, "outstanding drained after expiry", func() bool {
		return relGroup().Outstanding() == 0
	})
	if st := pub.node.RoutingStats(); st.NodesExpired == 0 {
		t.Errorf("NodesExpired = 0, want > 0; stats %+v", st)
	}
	mu.Lock()
	liveN := gotLive
	mu.Unlock()
	if liveN != 4 {
		t.Errorf("live subscriber got %d, want 4", liveN)
	}
}
