package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/chunk"
	"govents/internal/netsim"
	"govents/internal/transport"
)

// tally counts deliveries per payload at one node and keeps their order.
type tally struct {
	mu    sync.Mutex
	seen  map[string]int
	order []string
}

func newTally() *tally { return &tally{seen: make(map[string]int)} }

func (c *tally) record(_ string, payload []byte) {
	c.mu.Lock()
	c.seen[string(payload)]++
	c.order = append(c.order, string(payload))
	c.mu.Unlock()
}

func (c *tally) delivered() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.order)
}

func (c *tally) count(payload string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[payload]
}

func (c *tally) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.seen {
		n += k
	}
	return n
}

// linkState reads a group's link bookkeeping: frames queued for
// acknowledgement (and the capacity kept for them) on the sending side,
// runs received out of order and the frames held for them on the
// receiving side.
func linkState(g *Reliable) (queued, queueCap, ahead, held int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, l := range g.out {
		queued += len(l.entries) - l.head
		queueCap += cap(l.entries)
	}
	for _, l := range g.in {
		ahead += len(l.got.Runs())
		held += len(l.held) + len(l.ready)
	}
	return queued, queueCap, ahead, held
}

// TestReliableExactlyOnceProperty drives the link protocol over a
// network that loses a fifth of the frames, duplicates a fifth and
// delays each by up to 2 ms: every addressed member gets every message
// exactly once and in the order it was sent, nobody else gets it,
// across subsets, a sender restart and a member that leaves and
// returns.
func TestReliableExactlyOnceProperty(t *testing.T) {
	net := netsim.New(netsim.Config{LossRate: 0.2, DupRate: 0.2, MaxLatency: 2 * time.Millisecond, Seed: 42})
	defer net.Close()
	names := []string{"a", "b", "c", "d"}
	nodes := make(map[string]*testNode)
	tallies := make(map[string]*tally)
	groups := make(map[string]*Reliable)
	for _, name := range names {
		nodes[name] = newTestNode(t, net, name)
		tallies[name] = newTally()
		groups[name] = NewReliable(nodes[name].mux, "cls", tallies[name].record, fastOpts())
		groups[name].SetMembers(names)
	}
	defer func() {
		for _, g := range groups {
			_ = g.Close()
		}
	}()

	// expect[node][payload] is true for every delivery owed, and
	// inOrder[node] lists them as a, the one sender, sent them.
	expect := make(map[string]map[string]bool)
	inOrder := make(map[string][]string)
	for _, name := range names {
		expect[name] = make(map[string]bool)
	}
	owe := func(name, p string) {
		expect[name][p] = true
		inOrder[name] = append(inOrder[name], p)
	}
	settle := func(what string) {
		t.Helper()
		waitFor(t, 20*time.Second, what+": deliveries", func() bool {
			for _, name := range names {
				for p := range expect[name] {
					if tallies[name].count(p) == 0 {
						return false
					}
				}
			}
			return true
		})
		waitFor(t, 20*time.Second, what+": acknowledged", func() bool { return groups["a"].Outstanding() == 0 })
		// Stragglers: duplicates and retransmissions still in flight.
		net.Settle()
		time.Sleep(20 * time.Millisecond)
		for _, name := range names {
			if got, want := tallies[name].total(), len(expect[name]); got != want {
				t.Fatalf("%s: %s holds %d deliveries, want exactly %d", what, name, got, want)
			}
			if got := tallies[name].delivered(); !slices.Equal(got, inOrder[name]) {
				t.Fatalf("%s: %s delivered out of send order:\n got %v\nwant %v", what, name, got, inOrder[name])
			}
		}
	}

	// Subsets: each message goes to a random non-empty set of members.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		var dests []string
		for _, name := range names {
			if rng.Intn(2) == 0 {
				dests = append(dests, name)
			}
		}
		if len(dests) == 0 {
			dests = []string{names[rng.Intn(len(names))]}
		}
		p := fmt.Sprintf("subset-%03d", i)
		for _, d := range dests {
			owe(d, p)
		}
		if err := groups["a"].BroadcastTo(dests, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	settle("subsets")

	// A sender restart: the new incarnation numbers its links from 1
	// again under a later epoch, and must be delivered, not deduplicated
	// against its predecessor.
	old := groups["a"].stream.epoch
	_ = groups["a"].Close()
	groups["a"] = NewReliable(nodes["a"].mux, "cls", tallies["a"].record, fastOpts())
	groups["a"].SetMembers(names)
	if groups["a"].stream.epoch <= old {
		t.Fatalf("restarted epoch %d does not outrank %d", groups["a"].stream.epoch, old)
	}
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("restart-%03d", i)
		for _, name := range names {
			owe(name, p)
		}
		if err := groups["a"].Broadcast([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	settle("sender restart")

	// d leaves while frames to it are outstanding (it is unreachable, so
	// they stay that way), then returns: everything sent after the
	// return arrives, and d's receive state does not sit behind the hole
	// of what was dropped.
	net.Crash("d")
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("absent-%03d", i)
		for _, name := range []string{"a", "b", "c"} {
			owe(name, p)
		}
		if err := groups["a"].Broadcast([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	groups["a"].SetMembers([]string{"a", "b", "c"})
	settle("member absent") // includes a no longer owing d anything
	net.Restart("d")
	groups["a"].SetMembers(names)
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("returned-%03d", i)
		for _, name := range names {
			owe(name, p)
		}
		if err := groups["a"].Broadcast([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	settle("member returned")
	for _, name := range []string{"b", "c", "d"} {
		if _, _, ahead, held := linkState(groups[name]); ahead != 0 || held != 0 {
			t.Errorf("%s still holds %d frames in %d out-of-order runs with nothing in flight", name, held, ahead)
		}
	}
}

// lossyTransport drops the link frames its filter picks.
type lossyTransport struct {
	netsim.Transport
	drop func(m *message) bool
}

func (l *lossyTransport) Send(to string, frame []byte) error {
	var m message
	if decodeFrame(frame, &m) == nil && l.drop(&m) {
		return nil
	}
	return l.Transport.Send(to, frame)
}

// TestReliableGiveUpDoesNotWedgeReceiver: a frame the sender gives up on,
// its destination having left the membership, leaves a hole in the link
// sequence. The base on the next frame, once the destination is back,
// closes it; and when frames are already held behind the hole and
// nothing further is published, the base announcement of the timer
// period that gave up does.
func TestReliableGiveUpDoesNotWedgeReceiver(t *testing.T) {
	setup := func(t *testing.T, drop func(*message) bool) (net *netsim.Network, b *testNode, ga, gb *Reliable) {
		net = netsim.New(netsim.Config{})
		t.Cleanup(func() { net.Close() })
		epA, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		b = newTestNode(t, net, "b")
		ga = NewReliable(NewMux(&lossyTransport{epA, drop}), "cls", func(string, []byte) {}, fastOpts())
		gb = NewReliable(b.mux, "cls", b.record, fastOpts())
		t.Cleanup(func() { ga.Close(); gb.Close() })
		ga.SetMembers([]string{"a", "b"})
		gb.SetMembers([]string{"a", "b"})

		_ = ga.BroadcastTo([]string{"b"}, []byte("first"))
		waitFor(t, 5*time.Second, "first delivery", func() bool { return b.count() == 1 })
		waitFor(t, 5*time.Second, "first acknowledged", func() bool { return ga.Outstanding() == 0 })
		return net, b, ga, gb
	}
	atRest := func(t *testing.T, gb *Reliable, want uint64) {
		t.Helper()
		gb.mu.Lock()
		cum := gb.in["a"].got.Floor()
		gb.mu.Unlock()
		_, _, ahead, held := linkState(gb)
		if cum != want || ahead != 0 || held != 0 {
			t.Errorf("receiver at cum %d with %d runs ahead holding %d frames; want %d, 0 and 0", cum, ahead, held, want)
		}
	}

	t.Run("base on the next frame", func(t *testing.T) {
		net, b, ga, gb := setup(t, func(*message) bool { return false })
		net.Partition([]string{"a"}, []string{"b"})
		_ = ga.BroadcastTo([]string{"b"}, []byte("lost"))
		ga.SetMembers([]string{"a"})
		waitFor(t, 5*time.Second, "give up", func() bool { return ga.Outstanding() == 0 })
		net.Heal()
		ga.SetMembers([]string{"a", "b"})

		_ = ga.BroadcastTo([]string{"b"}, []byte("next"))
		waitFor(t, 5*time.Second, "delivery after the give-up", func() bool { return b.count() == 2 })
		waitFor(t, 5*time.Second, "acknowledged after the give-up", func() bool { return ga.Outstanding() == 0 })
		if got := b.payloads(); got[0] != "first" || got[1] != "next" {
			t.Errorf("b delivered %v", got)
		}
		atRest(t, gb, 3)
	})

	t.Run("base announced with nothing further published", func(t *testing.T) {
		// Link sequence 2 never makes it; 3 and 4 do, and wait behind it.
		_, b, ga, gb := setup(t, func(m *message) bool { return m.Kind == kindData && m.Seq == 2 })
		for _, p := range []string{"lost", "third", "fourth"} {
			_ = ga.BroadcastTo([]string{"b"}, []byte(p))
		}
		waitFor(t, 5*time.Second, "3 and 4 held behind the hole", func() bool {
			_, _, _, held := linkState(gb)
			return held == 2
		})
		if b.count() != 1 {
			t.Fatalf("b delivered %v past a hole", b.payloads())
		}
		ga.SetMembers([]string{"a"})
		waitFor(t, 5*time.Second, "release on the give-up", func() bool { return b.count() == 3 })
		if got := b.payloads(); got[1] != "third" || got[2] != "fourth" {
			t.Errorf("b delivered %v, want first, third, fourth", got)
		}
		atRest(t, gb, 4)
	})
}

// TestReliableStateBoundedByInFlight sends 50 000 messages through one
// link with at most a window of them in flight: neither end may hold
// state that grows with the messages delivered.
func TestReliableStateBoundedByInFlight(t *testing.T) {
	net := netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 9})
	defer net.Close()
	a := newTestNode(t, net, "a")
	b := newTestNode(t, net, "b")
	var delivered atomic.Int64
	ga := NewReliable(a.mux, "cls", func(string, []byte) {}, Options{})
	gb := NewReliable(b.mux, "cls", func(string, []byte) { delivered.Add(1) }, Options{})
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	gb.SetMembers([]string{"a", "b"})

	const total, window = 50_000, 256
	payload := []byte("m")
	maxQueued, maxAheadSeen, maxHeld := 0, 0, 0
	for i := int64(0); i < total; i++ {
		for i-delivered.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		if err := ga.BroadcastTo([]string{"b"}, payload); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			queued, _, _, _ := linkState(ga)
			_, _, ahead, held := linkState(gb)
			maxQueued, maxAheadSeen, maxHeld = max(maxQueued, queued), max(maxAheadSeen, ahead), max(maxHeld, held)
		}
	}
	waitFor(t, 20*time.Second, "all delivered", func() bool { return delivered.Load() == total })
	waitFor(t, 20*time.Second, "all acknowledged", func() bool { return ga.Outstanding() == 0 })

	// In flight is the window plus what was delivered and awaits its
	// batched acknowledgement, itself in flight for a while: hundreds of
	// frames, a couple of thousand on a slow day, not fifty thousand.
	const bound = total / 10
	queued, queueCap, _, _ := linkState(ga)
	_, _, ahead, held := linkState(gb)
	if queued != 0 || ahead != 0 || held != 0 {
		t.Errorf("at rest the sender queues %d frames and the receiver holds %d in %d runs; want 0, 0 and 0", queued, held, ahead)
	}
	if maxQueued > bound || maxAheadSeen > bound || maxHeld > bound || queueCap > bound {
		t.Errorf("under load: sender queue %d (capacity %d), receiver runs %d holding %d frames; want each within %d",
			maxQueued, queueCap, maxAheadSeen, maxHeld, bound)
	}
	gb.mu.Lock()
	cum := gb.in["a"].got.Floor()
	gb.mu.Unlock()
	if cum != total {
		t.Errorf("receiver's cumulative sequence is %d, want %d", cum, total)
	}
}

// countingTransport counts the frames an endpoint sends.
type countingTransport struct {
	netsim.Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(to string, payload []byte) error {
	c.sends.Add(1)
	return c.Transport.Send(to, payload)
}

// TestReliableSendsOnLossFreeNetwork pins the retransmission age rule
// and the acknowledgement batching where nothing is lost: next to no
// frame is sent twice, and at most one acknowledgement answers eight
// data frames.
func TestReliableSendsOnLossFreeNetwork(t *testing.T) {
	net := netsim.New(netsim.Config{MinLatency: 200 * time.Microsecond, MaxLatency: 200 * time.Microsecond})
	defer net.Close()
	epA, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := &countingTransport{Transport: epA}, &countingTransport{Transport: epB}
	var delivered atomic.Int64
	// A long interval keeps the timer's share of the acknowledgements
	// small even when the race detector slows the link to a crawl.
	opts := Options{RetransmitInterval: 100 * time.Millisecond}
	ga := NewReliable(NewMux(ta), "cls", func(string, []byte) {}, opts)
	gb := NewReliable(NewMux(tb), "cls", func(string, []byte) { delivered.Add(1) }, opts)
	defer ga.Close()
	defer gb.Close()
	ga.SetMembers([]string{"a", "b"})
	gb.SetMembers([]string{"a", "b"})

	const total, window = 10_000, 64
	for i := int64(0); i < total; i++ {
		for i-delivered.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		if err := ga.BroadcastTo([]string{"b"}, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, "all delivered", func() bool { return delivered.Load() == total })
	waitFor(t, 20*time.Second, "all acknowledged", func() bool { return ga.Outstanding() == 0 })
	net.Settle()

	data, acks := ta.sends.Load(), tb.sends.Load()
	if data > total*101/100 {
		t.Errorf("%d data frames for %d messages: more than 1%% were sent again on a network that lost none", data, total)
	}
	if acks > data/8 {
		t.Errorf("%d acknowledgements for %d data frames, want at most one in eight", acks, data)
	}
	if acks == 0 {
		t.Error("no acknowledgement was sent")
	}
}

// inLinkOracle runs an inLink beside a plain set of the sequences it
// has received and the floor at or below which all are settled, and
// checks after every step that the two agree: what the link releases
// must be every frame received, once and in ascending order, none ahead
// of the cumulative sequence.
type inLinkOracle struct {
	t        *testing.T
	l        inLink
	up       *releaseList // the store of what l holds
	set      map[uint64]bool
	floor    uint64
	released int
	last     uint64
}

func newInLinkOracle(t *testing.T) *inLinkOracle {
	return &inLinkOracle{t: t, set: map[uint64]bool{}, up: newReleaseList(func(string, []byte) {})}
}

// step applies the arrival of a data frame with link sequence seq or,
// with base above 0, a base announcement, and checks the link.
func (o *inLinkOracle) step(where string, i int, seq, base uint64) {
	t, l := o.t, &o.l
	if base > 0 {
		l.raise(base)
		o.floor = max(o.floor, base-1)
	} else {
		want := o.set[seq] || seq <= o.floor
		if got := l.got.Has(seq); got != want {
			t.Fatalf("%s step %d: seen(%d) = %v, want %v (cum %d, runs %v)", where, i, seq, got, want, l.got.Floor(), l.got.Runs())
		}
		if !want {
			if !l.note(seq, queuedMsg{payload: binary.AppendUvarint(nil, seq)}, o.up) {
				t.Fatalf("%s step %d: note(%d) refused with %d runs", where, i, seq, len(l.got.Runs()))
			}
			o.set[seq] = true
		}
	}
	for o.set[o.floor+1] {
		o.floor++
	}
	cum := l.got.Floor()
	if cum != o.floor {
		t.Fatalf("%s step %d: cum %d, want %d (runs %v)", where, i, cum, o.floor, l.got.Runs())
	}
	for _, msg := range l.ready {
		seq, _ := binary.Uvarint(msg.payload)
		if !o.set[seq] || seq <= o.last || seq > cum {
			t.Fatalf("%s step %d: released %d after %d at cum %d", where, i, seq, o.last, cum)
		}
		o.released, o.last = o.released+1, seq
	}
	l.ready = l.ready[:0]
	if o.released+len(l.held) != len(o.set) {
		t.Fatalf("%s step %d: %d released and %d held of %d received", where, i, o.released, len(l.held), len(o.set))
	}
	prev := cum
	for _, r := range l.got.Runs() {
		if r.Lo < prev+2 || r.Hi < r.Lo {
			t.Fatalf("%s step %d: runs %v not ascending with gaps above cum %d", where, i, l.got.Runs(), cum)
		}
		for s := r.Lo; s <= r.Hi; s++ {
			if !o.set[s] {
				t.Fatalf("%s step %d: run %v covers %d, never delivered", where, i, r, s)
			}
		}
		prev = r.Hi
	}
}

// permute calls fn with every order of xs, rearranging xs in place.
func permute(xs []uint64, fn func([]uint64)) {
	var walk func(k int)
	walk = func(k int) {
		if k == len(xs) {
			fn(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			walk(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	walk(0)
}

// TestInLinkRunsAgainstSet drives the receiver's run bookkeeping against
// inLinkOracle: with random arrivals and bases, and with every arrival
// order of the frames of each subset of link sequences 1..5, one of
// them arriving twice and one base announcement, of each base from 1 to
// 6, among them.
func TestInLinkRunsAgainstSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		o, where := newInLinkOracle(t), fmt.Sprintf("round %d", round)
		for step := 0; step < 300; step++ {
			if rng.Intn(20) == 0 {
				o.step(where, step, 0, o.floor+1+uint64(rng.Intn(8))) // a frame's base is at least 1
			} else {
				o.step(where, step, o.floor+1+uint64(rng.Intn(40)), 0)
			}
		}
	}
	for subset := 1; subset < 1<<5; subset++ {
		var frames []uint64
		for seq := uint64(1); seq <= 5; seq++ {
			if subset&(1<<(seq-1)) != 0 {
				frames = append(frames, seq)
			}
		}
		for _, dup := range frames {
			for base := uint64(1); base <= 6; base++ {
				events := append(slices.Clone(frames), dup, 0) // 0 is the base announcement
				permute(events, func(order []uint64) {
					o, where := newInLinkOracle(t), fmt.Sprintf("%v (0: base %d)", order, base)
					for i, seq := range order {
						if seq == 0 {
							o.step(where, i, 0, base)
						} else {
							o.step(where, i, seq, 0)
						}
					}
				})
			}
		}
	}
}

func TestInLinkRefusesOneHoleTooMany(t *testing.T) {
	l, up := &inLink{}, newReleaseList(func(string, []byte) {})
	for i := 0; i < maxAhead; i++ {
		if !l.note(uint64(2*i+2), queuedMsg{}, up) {
			t.Fatalf("run %d refused", i)
		}
	}
	if l.note(uint64(2*maxAhead+2), queuedMsg{}, up) {
		t.Error("a run beyond maxAhead was accepted")
	}
	if !l.note(3, queuedMsg{}, up) || !l.note(1, queuedMsg{}, up) {
		t.Error("a sequence that fills a hole must be accepted at the bound")
	}
	if cum, runs := l.got.Floor(), len(l.got.Runs()); cum != 4 || runs != maxAhead-2 {
		t.Errorf("cum %d with %d runs, want 4 and %d", cum, runs, maxAhead-2)
	}
}

// TestInLinkInOrderAllocs pins the FIFO receive path's bookkeeping: a
// frame that is next in line costs the link nothing.
func TestInLinkInOrderAllocs(t *testing.T) {
	l, seq := &inLink{}, uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		l.note(seq, queuedMsg{}, nil) // in order: nothing is held
		l.ready = l.ready[:0]
	}); n != 0 {
		t.Errorf("an in-order frame allocates %.1f times, want 0", n)
	}
	if l.got.Floor() != seq || len(l.held) != 0 {
		t.Errorf("cum %d holding %d frames, want %d and none", l.got.Floor(), len(l.held), seq)
	}
}

// discardTransport sends nothing.
type discardTransport struct{ netsim.Transport }

func (discardTransport) Send(string, []byte) error { return nil }

// TestReliableTickAllocs pins what a timer period costs a link that owes
// one acknowledgement: nothing. The slice of frames a period sends is the
// group's, reused and cleared, and the acknowledgement's frame is built
// in a reused buffer. Under -race the pool drops some of what it is
// given, so there the count goes unchecked and the rest still runs.
func TestReliableTickAllocs(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ep, err := net.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	// Nothing leaves, so that a send costs what the group pays for it; the
	// interval keeps the timer out of the way.
	g := NewReliable(NewMux(discardTransport{ep}), "cls", func(string, []byte) {}, Options{RetransmitInterval: time.Hour})
	defer g.Close()
	data, err := encodeMessage(&message{Kind: kindData, Seq: 1, Base: 1, Payload: []byte("m")})
	if err != nil {
		t.Fatal(err)
	}
	g.onMessage("a", incarnation{epoch: 1, num: 1}, data)
	g.mu.Lock()
	l := g.in["a"]
	g.mu.Unlock()
	if l == nil || l.got.Floor() != 1 {
		t.Fatalf("the frame opened no link: %+v", l)
	}
	allocs := testing.AllocsPerRun(200, func() {
		g.mu.Lock()
		l.unacked = 1
		g.mu.Unlock()
		g.tick()
		if l.unacked != 0 {
			t.Fatal("the period did not acknowledge")
		}
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("a period that owes one acknowledgement allocates %.1f times, want 0", allocs)
	}
	if kept := g.tickFrames[:cap(g.tickFrames)]; len(kept) == 0 || kept[0].addr != "" || kept[0].msg.Kind != 0 {
		t.Errorf("the period's frames were not kept and cleared after sending: %+v", kept)
	}
}

// seqTap counts the data frames an endpoint sends with link sequence 2.
type seqTap struct {
	netsim.Transport
	seq2 atomic.Int64
}

func (s *seqTap) Send(to string, frame []byte) error {
	var m message
	if decodeFrame(frame, &m) == nil && m.Kind == kindData && m.Seq == 2 {
		s.seq2.Add(1)
	}
	return s.Transport.Send(to, frame)
}

// TestReliableBlockedUpcallStopsAcks: over TCP, a receiver whose upcall
// blocks holds up the connection reader that released the frame, so the
// frames behind it are neither read nor acknowledged, and the sender
// keeps owing them. The oracle is the sender resending frame 2 (or
// everything acknowledged, which is the failure), not a wait. Once the
// upcall returns, every broadcast is handled exactly once, in order,
// and acknowledged.
func TestReliableBlockedUpcallStopsAcks(t *testing.T) {
	const total = 2000
	ta, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tap := &seqTap{Transport: ta}
	unblock := make(chan struct{})
	handled := newTally()
	opts := Options{RetransmitInterval: 20 * time.Millisecond}
	ga := NewReliable(NewMux(tap), "cls", func(string, []byte) {}, opts)
	defer ga.Close()
	gb := NewReliable(NewMux(tb), "cls", func(origin string, payload []byte) {
		<-unblock
		handled.record(origin, payload)
	}, opts)
	defer gb.Close()
	release := sync.OnceFunc(func() { close(unblock) })
	defer release() // before the closes, should the test fail
	members := []string{ta.Addr(), tb.Addr()}
	ga.SetMembers(members)
	gb.SetMembers(members)

	for i := range total {
		if err := ga.BroadcastTo([]string{tb.Addr()}, fmt.Appendf(nil, "m%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "frame 2 resent, or every frame acknowledged", func() bool {
		return tap.seq2.Load() > 1 || ga.Outstanding() == 0
	})
	if owed := ga.Outstanding(); owed < total-1 {
		t.Fatalf("sender owes %d of %d broadcasts while the receiver's upcall blocks, want at least %d", owed, total, total-1)
	}

	release()
	waitFor(t, 10*time.Second, "every broadcast handled", func() bool { return handled.total() >= total })
	waitFor(t, 10*time.Second, "every broadcast acknowledged", func() bool { return ga.Outstanding() == 0 })
	got := handled.delivered()
	if len(got) != total {
		t.Fatalf("handled %d, want %d", len(got), total)
	}
	for i, p := range got {
		if want := fmt.Sprintf("m%04d", i); p != want {
			t.Fatalf("handled %q at %d, want %q", p, i, want)
		}
	}
}

// sentBytesTap checks every data frame an endpoint sends against the
// payload its test says belongs to the frame's link sequence, and counts
// the frames that carry other bytes. hold, if set, sees each data frame
// before it goes on.
type sentBytesTap struct {
	netsim.Transport
	want  func(seq uint64) []byte
	hold  func(m *message)
	data  atomic.Int64
	wrong atomic.Int64
}

func (s *sentBytesTap) Send(to string, frame []byte) error {
	var m message
	if decodeFrame(frame, &m) == nil && m.Kind == kindData {
		s.data.Add(1)
		if !bytes.Equal(m.Payload, s.want(m.Seq)) {
			s.wrong.Add(1)
		}
		if s.hold != nil {
			s.hold(&m)
		}
	}
	return s.Transport.Send(to, frame)
}

// logChunks is how many distinct chunks the copies a group's links
// still hold lie in.
func logChunks(g *Reliable) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := make(map[*chunk.Chunk]bool)
	for _, l := range g.out {
		for _, e := range l.entries[l.head:] {
			if e.chunk != nil {
				seen[e.chunk] = true
			}
		}
	}
	return len(seen)
}

// TestReliableRetransmitsFromItsOwnCopy: a link resends what it was
// given, byte for byte, from a copy of its own, and recycles the copy's
// chunks only once no timer period can still be sending from them. The
// publisher writes every payload into one buffer it rewrites as soon as
// the broadcast returns.
func TestReliableRetransmitsFromItsOwnCopy(t *testing.T) {
	// payload is the i-th broadcast's: its index, then 200 to 2,000
	// bytes, a few to a chunk.
	payload := func(i int) []byte {
		p := binary.BigEndian.AppendUint64(nil, uint64(i))
		for j := range 200 + i*397%1800 {
			p = append(p, byte(i*7+j))
		}
		return p
	}
	// broadcast sends the i-th payload from the publisher's one buffer.
	buf := make([]byte, 0, 2048)
	broadcast := func(t *testing.T, g *Reliable, dests []string, i int) {
		t.Helper()
		buf = append(buf[:0], payload(i)...)
		if err := g.BroadcastTo(dests, buf); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xEE // the caller's to reuse
		}
	}

	// Thousands of broadcasts over a network that loses a tenth of the
	// frames, so that much is resent while acknowledgements retire chunks
	// and new broadcasts fill recycled ones; one of the two members
	// leaves halfway, and what it is still owed is dropped. Every data
	// frame sent carries the payload of its link sequence, each member
	// delivers, in order, only payloads as they were published, and once
	// the burst is acknowledged the links hold no copy.
	t.Run("lossy burst", func(t *testing.T) {
		const total = 4000
		net := netsim.New(netsim.Config{LossRate: 0.1, MaxLatency: 200 * time.Microsecond, Seed: 11})
		defer net.Close()
		epA, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		// Both links number the publisher's broadcasts from 1: b is sent
		// every one, c the first half.
		tap := &sentBytesTap{Transport: epA, want: func(seq uint64) []byte { return payload(int(seq) - 1) }}
		ga := NewReliable(NewMux(tap), "cls", func(string, []byte) {}, fastOpts())
		defer ga.Close()
		members := map[string]*tally{"b": newTally(), "c": newTally()}
		for name, tl := range members {
			g := NewReliable(newTestNode(t, net, name).mux, "cls", tl.record, fastOpts())
			defer g.Close()
			g.SetMembers([]string{"a", "b", "c"})
		}
		ga.SetMembers([]string{"a", "b", "c"})

		dests := []string{"b", "c"}
		for i := range total {
			// A window in flight: the next broadcasts go out as resent
			// frames fill the holes.
			for i-members["b"].total() >= 64 {
				time.Sleep(50 * time.Microsecond)
			}
			if i == total/2 {
				ga.SetMembers([]string{"a", "b"})
				dests = dests[:1]
			}
			broadcast(t, ga, dests, i)
		}
		waitFor(t, 20*time.Second, "every broadcast delivered at b", func() bool { return members["b"].total() == total })
		waitFor(t, 20*time.Second, "every broadcast acknowledged or dropped", func() bool { return ga.Outstanding() == 0 })

		t.Logf("%d data frames sent for %d broadcasts; c delivered %d of %d", tap.data.Load(), total*3/2, members["c"].total(), total/2)
		if n, wrong := tap.data.Load(), tap.wrong.Load(); wrong != 0 || n <= total*3/2 {
			t.Errorf("%d of %d data frames sent carried bytes other than their link sequence's payload; want none, and some resent", wrong, n)
		}
		for name, tl := range members {
			last := -1
			for k, p := range tl.delivered() {
				i := int(binary.BigEndian.Uint64([]byte(p)))
				if i <= last || !bytes.Equal([]byte(p), payload(i)) {
					t.Fatalf("%s's delivery %d after payload %d is not a later payload as published: %x...", name, k, last, p[:min(len(p), 16)])
				}
				last = i
			}
			if name == "b" && last != total-1 {
				t.Errorf("b delivered up to payload %d, want %d", last, total-1)
			}
		}
		waitFor(t, 5*time.Second, "every copy given back", func() bool { return logChunks(ga) == 0 })
	})

	// A timer period that resends is held after its first frame. Meanwhile
	// an acknowledgement releases the copies in the first chunk, whose
	// frames that period has still to send, and new broadcasts need a
	// chunk: they must not be given that one.
	t.Run("period held open", func(t *testing.T) {
		net := netsim.New(netsim.Config{})
		defer net.Close()
		ep, err := net.NewEndpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		held, release := make(chan struct{}), make(chan struct{})
		var armed atomic.Bool
		tap := &sentBytesTap{Transport: discardTransport{ep}, want: func(seq uint64) []byte { return payload(int(seq) - 1) },
			hold: func(*message) {
				if armed.CompareAndSwap(true, false) {
					close(held)
					<-release
				}
			}}
		ga := NewReliable(NewMux(tap), "cls", func(string, []byte) {}, fastOpts())
		defer ga.Close()
		defer close(release)
		ga.SetMembers([]string{"a", "b"})

		// Payloads 0 to 7 fill the first chunk, 8 starts the second, and
		// 13 will need a third.
		for i := range 9 {
			broadcast(t, ga, []string{"b"}, i)
		}
		if chunks := logChunks(ga); chunks != 2 {
			t.Fatalf("9 broadcasts fill %d chunks, want 2", chunks)
		}
		armed.Store(true) // nothing was acknowledged: the next data frame is a resend
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			t.Fatal("nothing was resent")
		}
		ack, err := encodeMessage(&message{Kind: kindAck, Inc: 1, Seq: 9})
		if err != nil {
			t.Fatal(err)
		}
		ga.mux.mu.Lock()
		ga.stream.known["b"] = 1 // b confirmed the stream, numbering ga's incarnation 1
		ga.mux.mu.Unlock()
		ga.onMessage("b", incarnation{}, ack)
		for i := 9; i < 14; i++ {
			broadcast(t, ga, []string{"b"}, i)
		}
		release <- struct{}{}
		// The 9 first sends, the period's 9 resends and the 5 new sends.
		waitFor(t, 5*time.Second, "the held period's frames", func() bool { return tap.data.Load() >= 23 })
		if wrong := tap.wrong.Load(); wrong != 0 {
			t.Errorf("%d data frames carried bytes other than their link sequence's payload, want none", wrong)
		}
	})
}
